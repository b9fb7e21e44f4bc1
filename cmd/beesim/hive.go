package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"beesim/internal/adaptive"
	"beesim/internal/experiments"
	"beesim/internal/faults"
	"beesim/internal/netsim"
	"beesim/internal/power"
	"beesim/internal/report"
	"beesim/internal/routine"
	"beesim/internal/solar"
)

// campaign replays the Section IV measurement campaign; with no flags
// it is artifact S4. With -faults its uploads replay through the
// deterministic fault plan: failed uploads retry with backoff, fall
// back to local inference, and queue for a buffer-and-drain flush on
// recovery (see docs/FAULTS.md).
func campaign(fs *flag.FlagSet, args []string, w io.Writer) error {
	n := fs.Int("n", 319, "number of routines to replay")
	faultsPath := fs.String("faults", "", "replay the campaign's uploads through this fault plan JSON")
	period := fs.Duration("period", 10*time.Minute, "wake-up period of the faulted campaign")
	bufferCap := fs.Int("buffer", 0, "upload buffer depth of the faulted campaign (0 = default)")
	return exec(fs, args, nil, false, func(workers int) error {
		if *faultsPath != "" {
			return faultyCampaign(w, *faultsPath, *n, *period, *bufferCap)
		}
		out, err := experiments.CampaignReport(*n, workers)
		if err != nil {
			return err
		}
		_, err = w.Write(out.Text)
		return err
	})
}

// faultyCampaign replays the measurement campaign's uploads through a
// fault plan and reports the payload accounting: delivered, flushed
// from the buffer, still buffered, dropped, and the retry/fallback
// energy the faults cost.
func faultyCampaign(w io.Writer, planPath string, n int, period time.Duration, bufferCap int) error {
	plan, err := faults.LoadPlan(planPath)
	if err != nil {
		return err
	}
	// The campaign's virtual epoch; fixed so equal plans replay
	// byte-identically (faults are keyed by virtual time, never wall
	// clock).
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	st, err := routine.SimulateFaultyCampaign(power.DefaultPi3B(), routine.FaultyCampaignConfig{
		Link:      netsim.DefaultConfig(),
		Plan:      plan,
		Start:     start,
		Period:    period,
		Routines:  n,
		BufferCap: bufferCap,
	})
	if err != nil {
		return err
	}
	retry := plan.RetryOrDefault()
	fmt.Fprintf(w, "faulted campaign (%d routines, wake every %v, plan seed %d, %d attempts max)\n\n",
		st.Routines, period, plan.Seed, retry.MaxAttempts)
	fmt.Fprintf(w, "  delivered fresh:    %6d\n", st.Delivered)
	fmt.Fprintf(w, "  flushed from queue: %6d\n", st.Flushed)
	fmt.Fprintf(w, "  still buffered:     %6d\n", st.Buffered)
	fmt.Fprintf(w, "  dropped (evicted):  %6d\n", st.Dropped)
	fmt.Fprintf(w, "  local fallbacks:    %6d\n", st.Fallbacks)
	fmt.Fprintf(w, "  send attempts:      %6d (%d failed)\n", st.Attempts, st.Failures)
	fmt.Fprintf(w, "  retry energy:       %v\n", st.RetryEnergy)
	fmt.Fprintf(w, "  fallback energy:    %v\n", st.FallbackEnergy)
	if !st.Conserved() {
		return fmt.Errorf("campaign payloads not conserved: %+v", st)
	}
	fmt.Fprintf(w, "\n  payload conservation: %d + %d + %d + %d == %d routines\n",
		st.Delivered, st.Flushed, st.Buffered, st.Dropped, st.Routines)
	return nil
}

func seasons(fs *flag.FlagSet, args []string, w io.Writer) error {
	days := fs.Int("days", 3, "days simulated per month")
	wake := fs.Duration("wake", 10*time.Minute, "wake-up period")
	site := fs.String("site", "cachan", "deployment site: cachan or lyon")
	return exec(fs, args, nil, false, func(int) error {
		loc := solar.Cachan
		if *site == "lyon" {
			loc = solar.Lyon
		}
		pts, err := experiments.Seasonal(loc, *days, *wake)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("year-round energy balance (%s, %v wake-ups, %d day(s)/month)", loc.Name, *wake, *days),
			"Month", "Routines/day", "Missed/day", "Harvest/day", "Consumption/day")
		for _, p := range pts {
			t.MustAddRow(
				p.Month.String(),
				fmt.Sprintf("%.0f", p.RoutinesPerDay),
				fmt.Sprintf("%.0f", p.MissedPerDay),
				p.HarvestPerDay.String(),
				p.ConsumptionPerDay.String())
		}
		return t.Render(w)
	})
}

func apiary(fs *flag.FlagSet, args []string, w io.Writer) error {
	days := fs.Int("days", 7, "days to simulate")
	wake := fs.Duration("wake", 10*time.Minute, "wake-up period")
	return exec(fs, args, nil, false, func(int) error {
		results, err := experiments.Apiary(*days, *wake)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("the paper's five-hive deployment over %d day(s)", *days),
			"Hive", "Site", "Routines", "Missed", "Outages", "Recorder energy", "Harvest")
		for _, r := range results {
			t.MustAddRow(
				r.Hive.Name,
				r.Hive.Location.Name,
				fmt.Sprintf("%d", r.Trace.Wakeups),
				fmt.Sprintf("%d", r.Trace.MissedWakeups),
				fmt.Sprintf("%d", r.Trace.Outages),
				r.Trace.RecorderEnergy.String(),
				r.Trace.HarvestedEnergy.String())
		}
		return t.Render(w)
	})
}

func policies(fs *flag.FlagSet, args []string, w io.Writer) error {
	days := fs.Int("days", 7, "days to simulate")
	month := fs.Int("month", 4, "starting month (1-12)")
	soc := fs.Float64("soc", 0.5, "initial battery state of charge")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	if *month < 1 || *month > 12 {
		return fmt.Errorf("month %d out of 1-12", *month)
	}
	cfg := adaptive.DefaultConfig()
	cfg.Days = *days
	cfg.InitialSoC = *soc
	cfg.Start = time.Date(2023, time.Month(*month), 10, 0, 0, 0, 0, time.UTC)
	results, err := experiments.PolicyComparison(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("orchestration policies over %d day(s) from %s", *days, cfg.Start.Format("Jan 2006")),
		"Policy", "Routines", "Missed", "Cloud cycles", "Energy", "Min SoC")
	for _, r := range results {
		t.MustAddRow(
			r.Policy,
			fmt.Sprintf("%d", r.Routines),
			fmt.Sprintf("%d", r.MissedRoutines),
			fmt.Sprintf("%d", r.CloudCycles),
			r.EdgeEnergy.String(),
			fmt.Sprintf("%.0f%%", 100*r.MinSoC))
	}
	return t.Render(w)
}
