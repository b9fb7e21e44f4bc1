package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/experiments"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/report"
	"beesim/internal/slo"
	"beesim/internal/solar"
	"beesim/internal/stats"
)

// trace runs the deployed-hive simulation of Figure 2 (artifact F2 with
// no flags): a multi-day discrete-event trace of one smart beehive
// (solar panel, battery, weather, colony, duty-cycled recorder), printed
// as a summary and optionally exported as the series CSV, a Chrome
// trace_event timeline, a metrics snapshot and an energy ledger.
//
// With -ledger the full ledger is written and audited for energy
// conservation; with -flight N only the last N entries are retained and
// dumped to stderr when the battery's protection circuit trips. With
// -replicas N it runs an N-replica ensemble (each replica on a seed
// derived from -seed) and prints per-replica summaries with ensemble
// statistics; exports are single-run features and cannot be combined
// with it.
func trace(fs *flag.FlagSet, args []string, w io.Writer) error {
	days := fs.Int("days", 7, "days to simulate")
	wake := fs.Duration("wake", 10*time.Minute, "recorder wake-up period")
	site := fs.String("site", "cachan", "deployment site: cachan or lyon")
	csvPath := fs.String("csv", "", "write the trace series to this CSV file")
	tel := telemetryFlags(fs)
	traceEvents := fs.Bool("trace-events", false, "include every DES engine event in the trace (verbose)")
	metricsCSV := fs.String("metrics-csv", "", "write the metrics snapshot to this CSV file")
	metricsJSON := fs.String("metrics-json", "", "write the metrics snapshot to this JSON file (exemplars included; feeds hivereport trace -metrics)")
	flight := fs.Int("flight", 0, "flight-recorder mode: retain only the last N ledger entries, dump to stderr on battery cutoff")
	empty := fs.Bool("empty", false, "simulate an empty hive (no colony yet)")
	noBrownout := fs.Bool("no-brownout", false, "disable the night bus brownout")
	faultsPath := fs.String("faults", "", "inject the deterministic fault plan from this JSON file")
	sloPath := fs.String("slo", "", "evaluate the SLO spec from this JSON file after the run (exit nonzero on breach)")
	seed := fs.Uint64("seed", 1, "random seed")
	replicas := fs.Int("replicas", 0, "run an N-replica ensemble (seeds derived per replica) instead of a single trace")
	return exec(fs, args, nil, true, func(int) error {
		cfg := deployment.DefaultConfig()
		cfg.Days = *days
		cfg.WakePeriod = *wake
		cfg.Seed = *seed
		cfg.NightBrownout = !*noBrownout
		switch *site {
		case "cachan":
			cfg.Location = solar.Cachan
		case "lyon":
			cfg.Location = solar.Lyon
		default:
			return usageError(fmt.Sprintf("unknown site %q", *site))
		}
		if *empty {
			cfg.Colony.Population = 0
		}
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			cfg.Faults = &plan
		}
		var spec slo.Spec
		if *sloPath != "" {
			if *flight > 0 {
				return usageError("-slo needs the full ledger; it cannot be combined with the -flight ring")
			}
			var err error
			if spec, err = slo.LoadSpec(*sloPath); err != nil {
				return err
			}
		}
		if *replicas > 0 {
			if *tel.metrics || *metricsCSV != "" || *metricsJSON != "" || *tel.tracePath != "" || *tel.ledgerPath != "" || *csvPath != "" || *flight > 0 || *sloPath != "" {
				return usageError("-replicas is a summary ensemble; it cannot be combined with -csv, -trace, -metrics, -metrics-csv, -metrics-json, -ledger, -flight or -slo")
			}
			return ensemble(w, cfg, *replicas)
		}
		if *tel.metrics || *metricsCSV != "" || *metricsJSON != "" || *sloPath != "" {
			// -slo needs the metrics registry armed even when the snapshot
			// is not otherwise printed: latency objectives read histograms.
			cfg.Metrics = obs.NewRegistry()
		}
		if *tel.tracePath != "" {
			cfg.Tracer = obs.NewTracer(cfg.Start)
			cfg.TraceEngineEvents = *traceEvents
		}
		switch {
		case *flight > 0:
			lg, err := ledger.NewRing(*flight)
			if err != nil {
				return err
			}
			lg.AutoDump(os.Stderr)
			cfg.Ledger = lg
		case *tel.ledgerPath != "" || *sloPath != "":
			// -slo also needs the full ledger: energy objectives sum its
			// consume entries.
			cfg.Ledger = ledger.New()
		}

		out, err := experiments.TraceReport(cfg)
		if err != nil {
			return err
		}
		if _, err := w.Write(out.Text); err != nil {
			return err
		}
		if err := export(w, *csvPath, out.CSV, "trace written to %s", *csvPath); err != nil {
			return err
		}
		if err := tel.writeFiles(w, cfg.Tracer, cfg.Ledger); err != nil {
			return err
		}

		if cfg.Ledger != nil {
			if *flight > 0 {
				// A ring sees only a window of the flows, so a conservation
				// audit over it is not meaningful; report retention instead.
				fmt.Fprintf(w, "\n  flight recorder: %d of %d entries retained, %d trip(s)\n",
					cfg.Ledger.Len(), cfg.Ledger.Total(), cfg.Ledger.Trips())
			} else {
				rep, tripErr := ledger.AuditTrip(cfg.Ledger, ledger.DefaultTolerance())
				if tripErr != nil {
					return tripErr
				}
				fmt.Fprintf(w, "\n  %s\n", rep.String())
				for _, v := range rep.Violations {
					fmt.Fprintf(w, "    %s\n", v.String())
				}
				if !rep.OK() {
					return fmt.Errorf("conservation audit failed with %d violation(s)", len(rep.Violations))
				}
			}
		}

		err = export(w, *metricsCSV, func(f io.Writer) error {
			return report.WriteMetricsCSV(f, cfg.Metrics.Snapshot())
		}, "metrics written to %s", *metricsCSV)
		if err != nil {
			return err
		}
		err = export(w, *metricsJSON, func(f io.Writer) error {
			return cfg.Metrics.Snapshot().WriteJSON(f)
		}, "metrics written to %s", *metricsJSON)
		if err != nil {
			return err
		}
		if err := tel.printMetrics(w, cfg.Metrics); err != nil {
			return err
		}

		if *sloPath != "" {
			rep, err := slo.Evaluate(spec, slo.Input{
				Snapshot: cfg.Metrics.Snapshot(),
				Entries:  cfg.Ledger.Entries(),
				Window:   time.Duration(cfg.Days) * 24 * time.Hour,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nslo check (%s):\n", *sloPath)
			if err := rep.WriteText(w); err != nil {
				return err
			}
			if !rep.Pass() {
				return fmt.Errorf("SLO %q breached: %d of %d objectives failing",
					spec.Name, rep.Breaches(), len(rep.Results))
			}
		}
		return nil
	})
}

// ensemble fans n deployment replicas (per-replica derived seeds)
// across the worker pool and prints a per-replica summary table plus
// ensemble mean and standard deviation — the quick answer to "how much
// of this trace is seed luck".
func ensemble(w io.Writer, cfg deployment.Config, n int) error {
	traces, err := deployment.RunReplicas(cfg, n, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hive ensemble: %s, %d day(s), wake every %v, %d replica(s), %d worker(s)\n\n",
		cfg.Location.Name, cfg.Days, cfg.WakePeriod, n, parallel.Default())
	t := report.NewTable("", "Replica", "Routines", "Missed", "Outages",
		"Recorder J", "Harvest J")
	var routines, missed, outages, recorder, harvest stats.Online
	for i, tr := range traces {
		t.MustAddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", tr.Wakeups),
			fmt.Sprintf("%d", tr.MissedWakeups),
			fmt.Sprintf("%d", tr.Outages),
			fmt.Sprintf("%.0f", float64(tr.RecorderEnergy)),
			fmt.Sprintf("%.0f", float64(tr.HarvestedEnergy)))
		routines.Add(float64(tr.Wakeups))
		missed.Add(float64(tr.MissedWakeups))
		outages.Add(float64(tr.Outages))
		recorder.Add(float64(tr.RecorderEnergy))
		harvest.Add(float64(tr.HarvestedEnergy))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  routines:  %.1f +/- %.1f\n", routines.Mean(), routines.StdDev())
	fmt.Fprintf(w, "  missed:    %.1f +/- %.1f\n", missed.Mean(), missed.StdDev())
	fmt.Fprintf(w, "  outages:   %.1f +/- %.1f\n", outages.Mean(), outages.StdDev())
	fmt.Fprintf(w, "  recorder:  %.0f J +/- %.0f J\n", recorder.Mean(), recorder.StdDev())
	fmt.Fprintf(w, "  harvest:   %.0f J +/- %.0f J\n", harvest.Mean(), harvest.StdDev())
	return nil
}
