package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"beesim/internal/core"
	"beesim/internal/experiments"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/optimizer"
	"beesim/internal/power"
	"beesim/internal/report"
	"beesim/internal/routine"
	"beesim/internal/services"
	"beesim/internal/slo"
	"beesim/internal/units"
)

// paperLosses enables the Section VI-C loss models named by the letters
// a, b and c in s.
func paperLosses(s string) core.Losses {
	return core.PaperLosses(
		strings.ContainsRune(s, 'a'),
		strings.ContainsRune(s, 'b'),
		strings.ContainsRune(s, 'c'))
}

func recommend(fs *flag.FlagSet, args []string, w io.Writer) error {
	clients := fs.Int("clients", 0, "fleet size (required)")
	maxPar := fs.Int("cap", 35, "clients allowed in parallel per time slot")
	model := fs.String("model", "cnn", "queen-detection model: svm or cnn")
	losses := fs.String("losses", "", "loss models to enable, e.g. \"abc\" or \"ab\"")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	if *clients <= 0 {
		return fmt.Errorf("-clients must be positive")
	}
	m := routine.CNN
	if strings.EqualFold(*model, "svm") {
		m = routine.SVM
	}
	svc, err := core.NewService(m, 5*time.Minute)
	if err != nil {
		return err
	}
	rec, err := core.Recommend(*clients, core.DefaultServer(*maxPar), svc, paperLosses(*losses))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fleet: %d smart beehives, slot capacity %d, service %s\n\n",
		*clients, *maxPar, svc.Name)
	fmt.Fprintf(w, "  edge scenario:       %7.1f J/client/cycle\n", float64(rec.EdgeOnlyPerClient))
	fmt.Fprintf(w, "  edge+cloud scenario: %7.1f J/client/cycle  (%d server(s))\n",
		float64(rec.EdgeCloudPerClient), rec.Servers)
	fmt.Fprintf(w, "\n  recommendation: %v (saves %.1f J/client/cycle)\n",
		rec.Placement, float64(rec.Margin()))
	return nil
}

func optimize(fs *flag.FlagSet, args []string, w io.Writer) error {
	hives := fs.Int("hives", 0, "fleet size (required)")
	staleness := fs.Duration("staleness", time.Hour, "maximum data age the beekeeper accepts")
	bundle := fs.String("services", "queen", "comma-separated services: queen,pollen,count,swarm")
	losses := fs.String("losses", "", "loss models to enable, e.g. \"ab\"")
	return exec(fs, args, nil, false, func(int) error {
		if *hives <= 0 {
			return fmt.Errorf("-hives must be positive")
		}
		var kinds []services.Kind
		for _, tok := range strings.Split(*bundle, ",") {
			switch strings.TrimSpace(tok) {
			case "queen":
				kinds = append(kinds, services.QueenDetection)
			case "pollen":
				kinds = append(kinds, services.PollenDetection)
			case "count":
				kinds = append(kinds, services.BeeCounting)
			case "swarm":
				kinds = append(kinds, services.SwarmPrediction)
			case "":
			default:
				return fmt.Errorf("unknown service %q", tok)
			}
		}
		req := optimizer.Requirements{
			Hives:        *hives,
			Services:     kinds,
			MaxStaleness: *staleness,
			Losses:       paperLosses(*losses),
		}
		res, err := optimizer.Optimize(req, optimizer.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "searched %d configurations (%d infeasible) for %d hives\n\n",
			res.Evaluated, res.Infeasible, *hives)
		fmt.Fprintf(w, "optimum: wake every %v, slot capacity %d, %d server(s)\n",
			res.Best.Period, res.Best.MaxParallel, res.Best.Servers)
		fmt.Fprintf(w, "  %.1f J/hive/cycle, %s fleet-wide per day\n", float64(res.Best.PerHive), res.Best.PerDay)
		decided := make([]services.Kind, 0, len(res.Best.Plan.Decisions))
		for k := range res.Best.Plan.Decisions {
			decided = append(decided, k)
		}
		sort.Slice(decided, func(i, j int) bool { return decided[i] < decided[j] })
		for _, k := range decided {
			fmt.Fprintf(w, "  %-18v -> %v\n", k, res.Best.Plan.Decisions[k])
		}
		fmt.Fprintln(w, "\nenergy/freshness frontier:")
		t := report.NewTable("", "Wake period", "J/hive/cycle", "Fleet J/day", "Servers")
		for _, c := range res.Frontier {
			t.MustAddRow(c.Period.String(),
				fmt.Sprintf("%.1f", float64(c.PerHive)),
				c.PerDay.String(),
				fmt.Sprintf("%d", c.Servers))
		}
		return t.Render(w)
	})
}

// sweep runs a client-range sweep of both scenarios (Figures 6-9 take
// fixed ranges of it). With -faults the edge+cloud scenario is priced
// under the plan's degraded uplink: expected extra attempts re-pay the
// upload energy and undelivered cycles pay the local inference
// fallback.
func sweep(fs *flag.FlagSet, args []string, w io.Writer) error {
	from := fs.Int("from", 10, "smallest fleet size")
	to := fs.Int("to", 400, "largest fleet size")
	step := fs.Int("step", 1, "fleet size step")
	maxPar := fs.Int("cap", 10, "clients allowed in parallel per slot")
	model := fs.String("model", "cnn", "service model: svm or cnn")
	losses := fs.String("losses", "", "loss models to enable, e.g. \"abc\"")
	balanced := fs.Bool("balanced", false, "use the balanced fill policy")
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	tel := telemetryFlags(fs)
	faultsPath := fs.String("faults", "", "fault plan JSON degrading the edge+cloud uplink")
	return exec(fs, args, nil, true, func(int) error {
		m := routine.CNN
		if *model == "svm" {
			m = routine.SVM
		}
		svc, err := core.NewService(m, 5*time.Minute)
		if err != nil {
			return err
		}
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			pi := power.DefaultPi3B()
			a := 1 - plan.Link.DropProb
			retry := plan.RetryOrDefault()
			svc = experiments.DegradeService(svc, a, retry,
				pi.SendAudio().Energy, pi.InferCNN().Energy)
			fmt.Fprintf(w, "fault plan %s: availability %.2f, delivery %.3f within %d attempts\n",
				*faultsPath, a, retry.DeliveryProb(a), retry.MaxAttempts)
		}
		policy := core.FillSequential
		if *balanced {
			policy = core.FillBalanced
		}
		for _, c := range *losses {
			if !strings.ContainsRune("abc", c) {
				return fmt.Errorf("unknown loss %q", string(c))
			}
		}
		cfg := experiments.SweepConfig{
			Service: svc,
			Server:  core.DefaultServer(*maxPar),
			Losses:  paperLosses(*losses),
			From:    *from, To: *to, Step: *step,
			Policy: policy,
			Seed:   7,
		}
		if *tel.metrics {
			cfg.Metrics = obs.NewRegistry()
		}
		if *tel.tracePath != "" {
			cfg.Tracer = obs.NewTracer(time.Unix(0, 0).UTC())
		}
		if *tel.ledgerPath != "" {
			cfg.Ledger = ledger.New()
		}
		title := fmt.Sprintf("sweep %d-%d clients, cap %d, %s, losses %q",
			*from, *to, *maxPar, svc.Name, *losses)
		_, out, err := experiments.SweepReport(title, cfg)
		if err != nil {
			return err
		}
		if _, err := w.Write(out.Text); err != nil {
			return err
		}
		if err := export(w, *csvPath, out.CSV, "series written to %s", *csvPath); err != nil {
			return err
		}
		if err := tel.writeFiles(w, cfg.Tracer, cfg.Ledger); err != nil {
			return err
		}
		return tel.printMetrics(w, cfg.Metrics)
	})
}

// avail runs the availability sweep (artifact AV with no flags): the
// Figure 7 client-range sweep re-evaluated at each point of a
// link-availability grid, with the edge+cloud cycle priced up by the
// expected retry/fallback tax. The table shows the crossover fleet size
// drifting upward (and eventually vanishing) as the link degrades.
func avail(fs *flag.FlagSet, args []string, w io.Writer) error {
	from := fs.Int("from", 100, "smallest fleet size")
	to := fs.Int("to", 2000, "largest fleet size")
	step := fs.Int("step", 10, "fleet size step")
	maxPar := fs.Int("cap", 35, "clients allowed in parallel per slot")
	amin := fs.Float64("amin", 0.5, "lowest link availability")
	amax := fs.Float64("amax", 1.0, "highest link availability")
	points := fs.Int("points", 11, "availability grid points (ends inclusive)")
	faultsPath := fs.String("faults", "", "fault plan JSON supplying the seed and retry policy")
	sloPath := fs.String("slo", "", "SLO spec JSON evaluated per availability point (exit nonzero on breach)")
	csvPath := fs.String("csv", "", "write the availability series to this CSV file")
	tel := telemetryFlags(fs)
	return exec(fs, args, nil, true, func(workers int) error {
		cfg, err := experiments.DefaultAvailabilityConfig()
		if err != nil {
			return err
		}
		cfg.Workers = workers
		cfg.Server = core.DefaultServer(*maxPar)
		cfg.From, cfg.To, cfg.Step = *from, *to, *step
		cfg.AvailFrom, cfg.AvailTo, cfg.AvailSteps = *amin, *amax, *points
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			cfg.Retry = plan.RetryOrDefault()
			cfg.Seed = plan.Seed
		}
		if *tel.metrics {
			cfg.Metrics = obs.NewRegistry()
		}
		if *tel.tracePath != "" {
			cfg.Tracer = obs.NewTracer(time.Unix(0, 0).UTC())
		}
		if *tel.ledgerPath != "" {
			cfg.Ledger = ledger.New()
		}

		// With -slo every availability point is checked against the
		// spec over its own upload episodes.
		var sloCols []string
		var sloCells func(experiments.AvailabilityPoint) ([]string, error)
		breaches := 0
		if *sloPath != "" {
			spec, err := slo.LoadSpec(*sloPath)
			if err != nil {
				return err
			}
			sloCols = []string{"SLO", "Max burn"}
			sloCells = func(p experiments.AvailabilityPoint) ([]string, error) {
				rep, err := slo.Evaluate(spec, slo.Input{
					Snapshot: p.Obs,
					Window:   experiments.UploadSamples * experiments.Period,
				})
				if err != nil {
					return nil, err
				}
				verdict := "pass"
				if !rep.Pass() {
					verdict = fmt.Sprintf("FAIL (%d)", rep.Breaches())
					breaches++
				}
				maxBurn := 0.0
				for _, res := range rep.Results {
					if res.Burn > maxBurn {
						maxBurn = res.Burn
					}
				}
				return []string{verdict, fmt.Sprintf("%.3f", maxBurn)}, nil
			}
		}
		pts, out, err := experiments.AvailabilityReport(cfg, sloCols, sloCells)
		if err != nil {
			return err
		}
		if _, err := w.Write(out.Text); err != nil {
			return err
		}
		if err := export(w, *csvPath, out.CSV, "series written to %s", *csvPath); err != nil {
			return err
		}
		if err := tel.writeFiles(w, cfg.Tracer, cfg.Ledger); err != nil {
			return err
		}
		if cfg.Ledger != nil {
			rep := ledger.Audit(cfg.Ledger, ledger.DefaultTolerance())
			fmt.Fprintf(w, "  %s\n", rep.String())
			if !rep.OK() {
				return fmt.Errorf("conservation audit failed with %d violation(s)", len(rep.Violations))
			}
		}
		if err := tel.printMetrics(w, cfg.Metrics); err != nil {
			return err
		}
		if breaches > 0 {
			return fmt.Errorf("SLO breached at %d of %d availability points", breaches, len(pts))
		}
		return nil
	})
}

// scenarioBatteryWh is the paper's 74 Wh battery, the initial charge
// assumed by the scenario subcommand's store delta.
const scenarioBatteryWh = 74

// scenario replays the Table I/II duty cycle into an energy ledger: one
// hive, a fixed number of wake-up cycles, every task attributed. Edge
// tasks drain the battery (store-bound); cloud tasks are grid-powered
// attribution overlays. The store delta is registered from the summed
// drain, so the resulting file passes hivereport's conservation audit.
// Record both placements and diff them:
//
//	beesim scenario -placement edge -ledger edge.jsonl
//	beesim scenario -placement edgecloud -ledger edgecloud.jsonl
//	hivereport -diff edge.jsonl edgecloud.jsonl
func scenario(fs *flag.FlagSet, args []string, w io.Writer) error {
	model := fs.String("model", "cnn", "service model: svm or cnn")
	placement := fs.String("placement", "edge", "service placement: edge or edgecloud")
	period := fs.Duration("period", 5*time.Minute, "wake-up period")
	cycles := fs.Int("cycles", 12, "number of wake-up cycles to record")
	hiveID := fs.String("hive", "apiary-1", "hive id for the ledger entries")
	ledgerPath := fs.String("ledger", "", "write the energy ledger to this JSONL file (required)")
	return exec(fs, args, nil, true, func(int) error {
		if *ledgerPath == "" {
			return errors.New("scenario needs -ledger out.jsonl")
		}
		if *cycles <= 0 {
			return fmt.Errorf("non-positive cycle count %d", *cycles)
		}
		spec := routine.Spec{Period: *period}
		switch *model {
		case "cnn":
			spec.Model = routine.CNN
		case "svm":
			spec.Model = routine.SVM
		default:
			return fmt.Errorf("unknown model %q", *model)
		}
		switch *placement {
		case "edge":
			spec.Placement = routine.EdgeOnly
		case "edgecloud":
			spec.Placement = routine.EdgeCloud
		default:
			return fmt.Errorf("unknown placement %q", *placement)
		}
		cycle, err := routine.Build(power.DefaultPi3B(), power.DefaultCloud(), spec)
		if err != nil {
			return err
		}

		lg := ledger.New()
		// A fixed virtual epoch keeps equal-flag runs byte-identical.
		at := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
		for i := 0; i < *cycles; i++ {
			at = cycle.RecordLedger(lg, *hiveID, at)
		}
		// The edge tasks drain a fully charged battery; registering the
		// resulting delta closes the conservation books.
		initialJ := float64(scenarioBatteryWh * 3600)
		drainJ := float64(cycle.EdgeEnergy()) * float64(*cycles)
		lg.SetStore(*hiveID, "battery", initialJ, initialJ-drainJ)

		if err := writeFile(*ledgerPath, lg.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(w, "scenario: %s, %s, %d cycle(s) of %v\n",
			spec.Model, spec.Placement, *cycles, *period)
		fmt.Fprintf(w, "  edge energy:  %v (%v per cycle)\n",
			cycle.EdgeEnergy()*units.Joules(*cycles), cycle.EdgeEnergy())
		fmt.Fprintf(w, "  cloud energy: %v (%v per cycle)\n",
			cycle.CloudEnergy()*units.Joules(*cycles), cycle.CloudEnergy())
		fmt.Fprintf(w, "  %d ledger entries written to %s (inspect with hivereport)\n",
			lg.Len(), *ledgerPath)
		rep := ledger.Audit(lg, ledger.DefaultTolerance())
		fmt.Fprintf(w, "  %s\n", rep.String())
		if !rep.OK() {
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "    %s\n", v.String())
			}
			return fmt.Errorf("conservation audit failed with %d violation(s)", len(rep.Violations))
		}
		return nil
	})
}
