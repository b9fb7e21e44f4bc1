// Command beesim is the reproduction CLI: it regenerates every table and
// figure of the paper from the artifact list in internal/experiments,
// and runs the simulations behind them with their parameters as flags.
//
//	beesim reproduce [ID...] [-workers N] [-csv DIR] [-svg DIR]
//	beesim <trace|campaign|sweep|avail|scenario|recommend|optimize|...> [flags]
//
// reproduce runs the named artifacts (all of them, in list order, when
// none is named) at the paper's inputs, writing each one's series to
// DIR/<ID>.csv and each sweep figure to DIR/<ID>.svg. `beesim help`
// lists the subcommands and the artifact IDs; `beesim <cmd> -h` lists a
// subcommand's flags. Every simulation subcommand takes -workers N (0 =
// all CPUs, 1 = serial) and prints the same bytes for every N.
//
// A usage error (unknown command, artifact or flag, bad flag
// combination) exits 2; a runtime failure exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"beesim/internal/experiments"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/prof"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if code := exitCode(err); code != 0 {
		fmt.Fprintln(os.Stderr, "beesim:", err)
		os.Exit(code)
	}
}

// exitCode is the process status for run's error: 0 on success or -h,
// 2 for a usage error, 1 for a runtime failure.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return 1
}

// usageError marks bad invocations (exit 2, like flag parse errors) as
// opposed to runtime failures (exit 1).
type usageError string

func (e usageError) Error() string { return string(e) }

// command is one subcommand; run receives an empty flag set named after
// it, whose parse errors come back as usage errors.
type command struct {
	name, summary string
	run           func(fs *flag.FlagSet, args []string, w io.Writer) error
}

var commands = []command{
	{"reproduce", "regenerate the paper's tables and figures by artifact ID", reproduce},
	{"trace", "deployed-hive simulation (Figure 2) with its exports", trace},
	{"campaign", "replay the Section IV measurement campaign", campaign},
	{"sweep", "client-range sweep of both scenarios (Figures 6-9)", sweep},
	{"avail", "availability sweep: the crossover as the uplink degrades", avail},
	{"scenario", "record the Table I/II duty cycle into an energy ledger", scenario},
	{"recommend", "pick a placement for a fleet size", recommend},
	{"optimize", "search wake period x capacity x placement for a fleet", optimize},
	{"seasons", "year-round energy balance of one deployed hive", seasons},
	{"apiary", "the paper's five-hive deployment (2 Cachan + 3 Lyon)", apiary},
	{"policies", "fixed vs adaptive orchestration policies", policies},
	{"train", "train and evaluate the queen detectors (Section V)", train},
	{"synth", "write one synthetic hive-sound clip as WAV", synth},
}

// run executes one beesim invocation, printing its results to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		usage()
		return usageError("missing command")
	}
	switch args[0] {
	case "-h", "--help", "help":
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(flag.NewFlagSet(c.name, flag.ContinueOnError), args[1:], w)
		}
	}
	usage()
	return usageError(fmt.Sprintf("unknown command %q", args[0]))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: beesim <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(os.Stderr, "\nartifacts (beesim reproduce [ID...]):\n")
	for _, a := range experiments.Artifacts() {
		fmt.Fprintf(os.Stderr, "  %-4s %s\n", a.ID, a.Title)
	}
	fmt.Fprintf(os.Stderr, "\nsee also: hivenet (networked cloud service + edge agents), hivereport (ledger analysis)\n")
}

// reproduce runs the named artifacts, or all of them in list order.
func reproduce(fs *flag.FlagSet, args []string, w io.Writer) error {
	csvDir := fs.String("csv", "", "write each artifact's series to DIR/<ID>.csv")
	svgDir := fs.String("svg", "", "write each sweep figure to DIR/<ID>.svg")
	var ids []string
	return exec(fs, args, &ids, true, func(workers int) error {
		arts := experiments.Artifacts()
		if len(ids) > 0 {
			all := arts
			arts = nil
			for _, id := range ids {
				i := slices.IndexFunc(all, func(a experiments.Artifact) bool { return a.ID == id })
				if i < 0 {
					return usageError(fmt.Sprintf("unknown artifact %q", id))
				}
				arts = append(arts, all[i])
			}
		}
		for i, a := range arts {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "[%s] %s\n\n", a.ID, a.Title)
			out, err := a.Run(workers)
			if err != nil {
				return fmt.Errorf("%s: %w", a.ID, err)
			}
			if _, err := w.Write(out.Text); err != nil {
				return err
			}
			if *csvDir != "" && out.CSV != nil {
				path := filepath.Join(*csvDir, a.ID+".csv")
				if err := export(w, path, out.CSV, "series written to %s", path); err != nil {
					return err
				}
			}
			if *svgDir != "" && out.SVG != nil {
				path := filepath.Join(*svgDir, a.ID+".svg")
				if err := export(w, path, out.SVG, "figure written to %s", path); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// parse parses args into fs. Positional arguments may sit between the
// flags; they are appended to *pos, and are a usage error where pos is
// nil.
func parse(fs *flag.FlagSet, args []string, pos *[]string) error {
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return err
			}
			return usageError(err.Error())
		}
		if fs.NArg() == 0 {
			return nil
		}
		if pos == nil {
			return usageError(fmt.Sprintf("%s: unexpected argument %q", fs.Name(), fs.Arg(0)))
		}
		*pos = append(*pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// exec registers the flags the simulation subcommands share — -workers,
// and -cpuprofile/-memprofile where profile is set — parses args (see
// parse for pos), makes the worker count the process-wide parallel
// default and runs body under the profiler, folding the profile files'
// close errors into the result.
func exec(fs *flag.FlagSet, args []string, pos *[]string, profile bool, body func(workers int) error) (err error) {
	var p *prof.Profiler
	if profile {
		p = prof.Register(fs)
	}
	workers := fs.Int("workers", 0, "worker goroutines for parallel evaluation (0 = all CPUs, 1 = serial)")
	if err := parse(fs, args, pos); err != nil {
		return err
	}
	parallel.SetDefault(*workers)
	if err := p.Start(); err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, p.Stop())
	}()
	return body(*workers)
}

// writeFile creates path, runs write, and closes the file, returning
// the close error too: that is where a full disk or a failed flush
// would otherwise vanish.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// export writes path through write, when path is set, and reports the
// file on w as an indented line after a blank one.
func export(w io.Writer, path string, write func(io.Writer) error, format string, args ...any) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  "+format+"\n", args...)
	return nil
}

// telemetry is the -metrics, -trace and -ledger output flags that trace,
// sweep and avail share. It only writes: auditing the ledger and
// checking SLOs stay with the subcommands.
type telemetry struct {
	metrics               *bool
	tracePath, ledgerPath *string
}

func telemetryFlags(fs *flag.FlagSet) telemetry {
	return telemetry{
		metrics:    fs.Bool("metrics", false, "print the metrics snapshot"),
		tracePath:  fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file"),
		ledgerPath: fs.String("ledger", "", "write the energy ledger to this JSONL file"),
	}
}

// writeFiles writes the trace and ledger files the flags name.
func (t telemetry) writeFiles(w io.Writer, tr *obs.Tracer, lg *ledger.Ledger) error {
	err := export(w, *t.tracePath, tr.WriteJSON,
		"%d trace events written to %s (open at ui.perfetto.dev)", tr.Len(), *t.tracePath)
	if err != nil {
		return err
	}
	return export(w, *t.ledgerPath, lg.WriteJSONL,
		"%d ledger entries written to %s (inspect with hivereport)", lg.Len(), *t.ledgerPath)
}

// printMetrics prints the metrics snapshot when -metrics is set.
func (t telemetry) printMetrics(w io.Writer, reg *obs.Registry) error {
	if !*t.metrics {
		return nil
	}
	fmt.Fprintf(w, "\nmetrics:\n")
	return reg.Snapshot().WriteText(w)
}
