// Command hivereport reads energy ledger JSONL files (written by
// beesim trace/scenario/sweep/avail -ledger, or fetched from
// the cloud dashboard's /api/ledger) and reports where the joules went:
//
//	hivereport run.jsonl                 per-hive breakdown + conservation audit
//	hivereport -hive apiary-1 run.jsonl  limit tables to one hive
//	hivereport -csv out.csv run.jsonl    breakdown as CSV
//	hivereport -diff edge.jsonl edgecloud.jsonl
//	                                     two-run comparison, largest energy
//	                                     movement first (the paper's Section V
//	                                     edge vs edge+cloud question)
//
// The breakdown tables mirror the shape of the paper's Tables I/II: one
// row per (device, component, task, direction), with total joules, the
// covered duration, and the entry count.
//
// The slo subcommand evaluates a declarative SLO spec offline against
// a metrics snapshot (JSON from /api/metrics or obs.Snapshot) and/or a
// ledger file, and exits nonzero on breach:
//
//	hivereport slo -spec examples/slo_upload.json -metrics snap.json
//	hivereport slo -spec hive.json -ledger run.jsonl -window 48h
//
// The trace subcommand runs the critical-path analyzer over Chrome
// trace JSON files: slowest uploads, per-segment latency decomposition,
// and exemplar cross-reference (see trace.go):
//
//	hivereport trace -top 10 -metrics snap.json run.trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/report"
	"beesim/internal/slo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hivereport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// Subcommand dispatch before flag parsing keeps the original
	// flags-only invocations (`hivereport -diff a b`) working unchanged.
	if len(args) > 0 && args[0] == "slo" {
		return runSLO(args[1:], out)
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], out)
	}
	fs := flag.NewFlagSet("hivereport", flag.ContinueOnError)
	diff := fs.Bool("diff", false, "compare two ledger files (A B): where did the joules move?")
	hive := fs.String("hive", "", "limit breakdown tables to one hive id")
	csvPath := fs.String("csv", "", "also write the breakdown as CSV to this file")
	tolAbs := fs.Float64("tol-abs", ledger.DefaultTolerance().AbsJ,
		"conservation audit absolute tolerance in joules")
	tolRel := fs.Float64("tol-rel", ledger.DefaultTolerance().Rel,
		"conservation audit relative tolerance (fraction of gross flow)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hivereport [flags] ledger.jsonl")
		fmt.Fprintln(fs.Output(), "       hivereport -diff [flags] a.jsonl b.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diff {
		if fs.NArg() != 2 {
			fs.Usage()
			return errors.New("-diff needs exactly two ledger files")
		}
		a, err := loadLedger(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := loadLedger(fs.Arg(1))
		if err != nil {
			return err
		}
		return printDiff(out, fs.Arg(0), fs.Arg(1), a, b)
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return errors.New("need exactly one ledger file")
	}
	lg, err := loadLedger(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := printBreakdown(out, lg, *hive); err != nil {
		return err
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, ledger.Breakdown(lg.Entries(), *hive)); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n\n", *csvPath)
	}
	return printAudit(out, lg, ledger.Tolerance{AbsJ: *tolAbs, Rel: *tolRel})
}

// runSLO is the offline SLO gate: spec + snapshot and/or ledger in, a
// pass/fail report out, nonzero exit on breach so it can sit directly
// in a CI pipeline after a simulation run.
func runSLO(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hivereport slo", flag.ContinueOnError)
	specPath := fs.String("spec", "", "SLO spec JSON file (required)")
	metricsPath := fs.String("metrics", "", "metrics snapshot JSON (from /api/metrics or obs.Snapshot)")
	ledgerPath := fs.String("ledger", "", "energy ledger JSONL file (for energy objectives)")
	window := fs.Duration("window", 0, "virtual-time window the run covered (needed by budget_wh_per_day)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hivereport slo -spec spec.json [-metrics snap.json] [-ledger run.jsonl] [-window 48h] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		fs.Usage()
		return errors.New("slo needs -spec spec.json")
	}
	if *metricsPath == "" && *ledgerPath == "" {
		fs.Usage()
		return errors.New("slo needs -metrics and/or -ledger to evaluate against")
	}
	spec, err := slo.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	in := slo.Input{Window: *window}
	if *metricsPath != "" {
		data, err := os.ReadFile(*metricsPath)
		if err != nil {
			return err
		}
		if in.Snapshot, err = obs.ParseSnapshot(data); err != nil {
			return fmt.Errorf("%s: %w", *metricsPath, err)
		}
	}
	if *ledgerPath != "" {
		lg, err := loadLedger(*ledgerPath)
		if err != nil {
			return err
		}
		in.Entries = lg.Entries()
	}
	rep, err := slo.Evaluate(spec, in)
	if err != nil {
		return err
	}
	if *asJSON {
		err = rep.WriteJSON(out)
	} else {
		err = rep.WriteText(out)
	}
	if err != nil {
		return err
	}
	if !rep.Pass() {
		return fmt.Errorf("SLO %q breached: %d of %d objectives failing",
			spec.Name, rep.Breaches(), len(rep.Results))
	}
	return nil
}

func loadLedger(path string) (lg *ledger.Ledger, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		err = errors.Join(err, f.Close())
	}()
	lg, err = ledger.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lg, nil
}

// printBreakdown renders one table per hive (or one table for the
// selected hive) in the Tables I/II shape.
func printBreakdown(out io.Writer, lg *ledger.Ledger, hive string) error {
	entries := lg.Entries()
	hives := ledger.Hives(entries)
	if hive != "" {
		hives = []string{hive}
	}
	for _, h := range hives {
		rows := ledger.Breakdown(entries, h)
		name := h
		if name == "" {
			name = "(fleet)"
		}
		tbl := report.NewTable(fmt.Sprintf("Energy breakdown — hive %s", name),
			"device", "component", "task", "dir", "energy (J)", "time (s)", "entries")
		var totalJ float64
		for _, r := range rows {
			tbl.MustAddRow(r.Device, r.Component, r.Task, r.Dir.String(),
				fmt.Sprintf("%.3f", r.Joules),
				fmt.Sprintf("%.1f", r.Seconds),
				fmt.Sprintf("%d", r.Count))
			if r.Dir == ledger.Consume {
				totalJ += r.Joules
			}
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "total consumed: %.3f J\n\n", totalJ); err != nil {
			return err
		}
	}
	if len(hives) == 0 {
		if _, err := fmt.Fprintln(out, "ledger is empty"); err != nil {
			return err
		}
	}
	return nil
}

func printAudit(out io.Writer, lg *ledger.Ledger, tol ledger.Tolerance) error {
	rep := ledger.Audit(lg, tol)
	if _, err := fmt.Fprintln(out, rep.String()); err != nil {
		return err
	}
	if rep.OK() {
		return nil
	}
	for _, v := range rep.Violations {
		if _, err := fmt.Fprintln(out, " ", v.String()); err != nil {
			return err
		}
	}
	return fmt.Errorf("conservation audit failed with %d violation(s)", len(rep.Violations))
}

func printDiff(out io.Writer, nameA, nameB string, a, b *ledger.Ledger) error {
	rows := ledger.Diff(a.Entries(), b.Entries())
	tbl := report.NewTable(fmt.Sprintf("Run diff — A=%s  B=%s", nameA, nameB),
		"device", "component", "task", "dir", "A (J)", "B (J)", "Δ (J)")
	var totalA, totalB float64
	for _, r := range rows {
		tbl.MustAddRow(r.Device, r.Component, r.Task, r.Dir.String(),
			fmt.Sprintf("%.3f", r.AJ),
			fmt.Sprintf("%.3f", r.BJ),
			fmt.Sprintf("%+.3f", r.DeltaJ))
		if r.Dir == ledger.Consume {
			totalA += r.AJ
			totalB += r.BJ
		}
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out,
		"total consumed: A %.3f J, B %.3f J, Δ %+.3f J (%+.1f%%)\n",
		totalA, totalB, totalB-totalA, percentChange(totalA, totalB))
	return err
}

func percentChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

func writeCSV(path string, rows []ledger.Row) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, f.Close())
	}()
	return report.WriteLedgerCSV(f, rows)
}
