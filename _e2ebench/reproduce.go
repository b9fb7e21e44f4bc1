package main

import (
	"fmt"
	"math"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/experiments"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/power"
	"beesim/internal/routine"
)

// reproduce regenerates the paper's simulated artifacts from a seed:
// Tables I and II, the week-long Figure 2 trace with its energy ledger,
// Figure 3, the 319-routine Section IV campaign, the Figure 6–9 sweeps
// with all four loss variants, and the availability sweep. Only the
// virtual-time layers run: no audio, DSP, ML or sockets.
type reproduce struct {
	seed uint64
	out  reproduceOut
}

// reproduceOut holds the artifacts of the last op for verify.
type reproduceOut struct {
	tableI, tableII []experiments.ScenarioTable
	fig3            []experiments.Figure3Point
	campaign        routine.CampaignStats
	fig2            *deployment.Trace
	fig2Ledger      *ledger.Ledger
	fig6, fig7      []experiments.SweepPoint
	fig8            [4][]experiments.SweepPoint
	fig9            []experiments.SweepPoint
	avail           []experiments.AvailabilityPoint
}

// CampaignRoutines is the Section IV campaign size.
const campaignRoutines = 319

func (w *reproduce) setup(e *env) error { w.seed = e.seed; return nil }
func (w *reproduce) round() int         { return 1 }
func (w *reproduce) finish() error      { return nil }

func (w *reproduce) op(i int, tr *tracer) error {
	seed := opSeed(w.seed, i)
	var o reproduceOut
	var err error
	if err = tr.do("routine.tables", func() error {
		if o.tableI, err = experiments.TableI(); err != nil {
			return err
		}
		if o.tableII, err = experiments.TableII(); err != nil {
			return err
		}
		o.fig3 = experiments.Figure3()
		link := netsim.DefaultConfig()
		link.Seed = seed
		o.campaign, err = routine.SimulateCampaignParallel(power.DefaultPi3B(), link, campaignRoutines, 1)
		return err
	}); err != nil {
		return err
	}
	if err = tr.do("deployment.run", func() error {
		cfg := deployment.DefaultConfig()
		cfg.Seed = seed
		cfg.Ledger = ledger.New()
		o.fig2Ledger = cfg.Ledger
		o.fig2, err = deployment.Run(cfg)
		return err
	}); err != nil {
		return err
	}
	if err = tr.do("experiments.sweep", func() error { return o.sweeps(seed) }); err != nil {
		return err
	}
	if err = tr.do("experiments.avail", func() error {
		cfg, err := experiments.DefaultAvailabilityConfig()
		if err != nil {
			return err
		}
		cfg.Seed = seed
		cfg.Workers = 1
		o.avail, err = experiments.AvailabilitySweep(cfg)
		return err
	}); err != nil {
		return err
	}
	points := len(o.fig6) + len(o.fig7) + len(o.fig9)
	for _, p := range o.fig8 {
		points += len(p)
	}
	tr.count("deployment.wakeups", float64(o.fig2.Wakeups))
	tr.count("experiments.points", float64(points))
	w.out = o
	return nil
}

// sweeps runs Figures 6–9 serially, seeding every lossy sweep.
func (o *reproduceOut) sweeps(seed uint64) error {
	run := func(cfg experiments.SweepConfig, err error) ([]experiments.SweepPoint, error) {
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		cfg.Seed = seed
		return experiments.Sweep(cfg)
	}
	var err error
	if o.fig6, err = run(experiments.Figure6Config()); err != nil {
		return err
	}
	if o.fig7, err = run(experiments.Figure7Config(35)); err != nil {
		return err
	}
	for v := experiments.LossA; v <= experiments.LossAll; v++ {
		if o.fig8[v], err = run(experiments.Figure8Config(v)); err != nil {
			return err
		}
	}
	o.fig9, err = run(experiments.Figure9Config())
	return err
}

// Paper values and the tolerances the repository's own paper-figure
// tests and EXPERIMENTS.md document for this reproduction.
func near(name string, got, want, tol float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		return fmt.Errorf("%s = %.4g, paper %.4g (tolerance %.3g)", name, got, want, tol)
	}
	return nil
}

func (w *reproduce) verify(i int) error {
	o := &w.out
	cnnI, cnnII := o.tableI[1], o.tableII[1]
	if cnnI.Spec.Model != routine.CNN || cnnII.Spec.Model != routine.CNN {
		return fmt.Errorf("table row order changed: want the CNN scenario second")
	}
	// Index 170 is 180 clients: one full cap-10 server (18 slots x 10).
	fullServer := func(pts []experiments.SweepPoint) float64 {
		if len(pts) <= 170 || pts[170].Clients != 180 {
			return math.NaN()
		}
		return float64(pts[170].EdgeCloud.PerClientServer())
	}
	checks := []error{
		near("Table I CNN J/cycle", float64(cnnI.Cycle.EdgeEnergy()), 367.5, 0.2),
		near("Table II CNN edge J", float64(cnnII.Cycle.EdgeEnergy()), 322.0, 0.2),
		near("Table II CNN cloud J", float64(cnnII.Cycle.CloudEnergy()), 13806, 2),
		near("Fig 3 W at 5 min", float64(o.fig3[0].AvgPower), 1.19, 0.01),
		near("routine mean s", o.campaign.MeanDuration.Seconds(), 89, 3),
		near("routine sigma s", o.campaign.SDDuration.Seconds(), 3.5, 1),
		near("Fig 6 full-server J/client", fullServer(o.fig6), 116, 2),
		near("Fig 7 first crossover", float64(experiments.MilestonesOf(o.fig7).FirstCrossover), 406, 6),
		near("Fig 8 loss-A floor J/client", fullServer(o.fig8[experiments.LossA]), 186, 4),
	}
	for _, err := range checks {
		if err != nil {
			return fmt.Errorf("reproduce op %d: %w", i, err)
		}
	}
	if o.campaign.Routines != campaignRoutines {
		return fmt.Errorf("reproduce op %d: campaign ran %d routines, want %d", i, o.campaign.Routines, campaignRoutines)
	}
	if rep := ledger.Audit(o.fig2Ledger, ledger.DefaultTolerance()); !rep.OK() {
		return fmt.Errorf("reproduce op %d: Figure 2 ledger fails conservation: %s", i, rep)
	}
	// Figure 2 wakes every 10 minutes for 7 days at most.
	if o.fig2.Wakeups <= 0 || o.fig2.Wakeups+o.fig2.MissedWakeups > 7*24*6 {
		return fmt.Errorf("reproduce op %d: Figure 2 wake-ups %d + missed %d outside (0, %d]",
			i, o.fig2.Wakeups, o.fig2.MissedWakeups, 7*24*6)
	}
	// Figure 9: edge+cloud still wins on some intervals under all losses.
	wins := 0
	for _, p := range o.fig9 {
		if p.Diff() > 0 {
			wins++
		}
	}
	if wins == 0 {
		return fmt.Errorf("reproduce op %d: Figure 9 has no fleet size where edge+cloud wins", i)
	}
	return w.verifyAvail(i)
}

// verifyAvail checks the availability sweep against Figure 7: on a
// perfect link the crossover is Figure 7's, read on the sweep's
// 10-client grid, and losing availability never brings it closer.
func (w *reproduce) verifyAvail(i int) error {
	o := &w.out
	want := 0
	for _, p := range o.fig7 {
		if p.Clients%10 == 0 && p.Diff() > 0 {
			want = p.Clients
			break
		}
	}
	n := len(o.avail)
	if n == 0 || o.avail[n-1].Availability != 1 {
		return fmt.Errorf("reproduce op %d: availability grid does not end at 1", i)
	}
	if got := o.avail[n-1].FirstCrossover; got != want {
		return fmt.Errorf("reproduce op %d: crossover at availability 1 = %d, Figure 7 on the 10-client grid = %d", i, got, want)
	}
	for k := 1; k < n; k++ {
		lo, hi := o.avail[k-1], o.avail[k]
		if hi.DeliveryProb < lo.DeliveryProb {
			return fmt.Errorf("reproduce op %d: delivery probability falls from %g to %g as availability rises", i, lo.DeliveryProb, hi.DeliveryProb)
		}
		if lo.FirstCrossover != 0 && (hi.FirstCrossover == 0 || lo.FirstCrossover < hi.FirstCrossover) {
			return fmt.Errorf("reproduce op %d: crossover moves closer (%d -> %d) as availability falls", i, hi.FirstCrossover, lo.FirstCrossover)
		}
	}
	return nil
}

func (w *reproduce) layers() []layer {
	return []layer{
		{metric: "deployment.run_ms", unit: "ms", span: "deployment.run", scale: time.Millisecond},
		{metric: "deployment.wakeups", unit: "count", count: "deployment.wakeups"},
		{metric: "experiments.sweep_ms", unit: "ms", span: "experiments.sweep", scale: time.Millisecond},
		{metric: "experiments.points", unit: "count", count: "experiments.points"},
		{metric: "experiments.avail_ms", unit: "ms", span: "experiments.avail", scale: time.Millisecond},
		{metric: "routine.tables_ms", unit: "ms", span: "routine.tables", scale: time.Millisecond},
	}
}
