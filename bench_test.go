package beesim

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus ablations for the design choices DESIGN.md
// calls out. Each benchmark regenerates its artifact and reports the
// headline quantity as custom metrics (b.ReportMetric), so
// `go test -bench=. -benchmem` prints the reproduced numbers alongside
// the usual timing columns. EXPERIMENTS.md records paper-vs-measured.

import (
	"testing"
	"time"

	"beesim/internal/adaptive"
	"beesim/internal/audio"
	"beesim/internal/core"
	"beesim/internal/des"
	"beesim/internal/dsp"
	"beesim/internal/experiments"
	"beesim/internal/hivenet"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/optimizer"
	"beesim/internal/power"
	"beesim/internal/queendetect"
	"beesim/internal/routine"
	"beesim/internal/services"
	"beesim/internal/solar"
	"beesim/internal/swarm"
)

// BenchmarkTableI regenerates Table I (edge scenarios); metric: the CNN
// scenario's total joules per 5-minute cycle (paper: 367.5 J).
func BenchmarkTableI(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		total = float64(tables[1].Cycle.EdgeEnergy())
	}
	b.ReportMetric(total, "J/cycle")
}

// BenchmarkTableII regenerates Table II (edge+cloud); metrics: edge and
// cloud totals (paper: 322.0 J and 13 806 J for the CNN).
func BenchmarkTableII(b *testing.B) {
	var edge, cloud float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.TableII()
		if err != nil {
			b.Fatal(err)
		}
		edge = float64(tables[1].Cycle.EdgeEnergy())
		cloud = float64(tables[1].Cycle.CloudEnergy())
	}
	b.ReportMetric(edge, "edgeJ/cycle")
	b.ReportMetric(cloud, "cloudJ/cycle")
}

// BenchmarkFigure2 runs a 2-day deployment trace (the full figure uses
// 7 days); metric: completed routines per day (paper cadence: 10-minute
// wake-ups during daylight).
func BenchmarkFigure2(b *testing.B) {
	var wakeups float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Figure2Custom(2, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		wakeups = float64(tr.Wakeups) / 2
	}
	b.ReportMetric(wakeups, "routines/day")
}

// BenchmarkFigure3 regenerates the power-vs-period curve; metric: the
// 5-minute point (paper: 1.19 W).
func BenchmarkFigure3(b *testing.B) {
	var at5 float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure3()
		at5 = float64(pts[0].AvgPower)
	}
	b.ReportMetric(at5, "W@5min")
}

// BenchmarkRoutineStats replays the 319-routine campaign of Section IV;
// metrics: mean duration (paper: 89 s) and sigma (paper: 3.5 s).
func BenchmarkRoutineStats(b *testing.B) {
	var mean, sd float64
	for i := 0; i < b.N; i++ {
		st, err := experiments.RoutineStats(319)
		if err != nil {
			b.Fatal(err)
		}
		mean = st.MeanDuration.Seconds()
		sd = st.SDDuration.Seconds()
	}
	b.ReportMetric(mean, "s/routine")
	b.ReportMetric(sd, "sigma_s")
}

// BenchmarkFigure5 trains the CNN at a reduced set of input sizes on a
// small corpus (the full figure uses eight sizes and a larger corpus);
// metrics: accuracy at the largest size and the energy ratio between the
// sizes (quadratic scaling doubles the side -> ~4x variable energy).
func BenchmarkFigure5(b *testing.B) {
	cfg := experiments.DefaultFigure5()
	cfg.Sizes = []int{20, 40}
	cfg.CorpusSize = 48
	cfg.ClipSeconds = 1
	cfg.Epochs = 6
	var acc, ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = pts[len(pts)-1].Accuracy
		ratio = pts[1].FLOPs / pts[0].FLOPs
	}
	b.ReportMetric(acc, "accuracy")
	b.ReportMetric(ratio, "flops_ratio_40_20")
}

// BenchmarkFigure6 sweeps 10-400 clients at capacity 10; metric: the
// fully subscribed server's per-client cost (paper: converges to 116 J).
func BenchmarkFigure6(b *testing.B) {
	var floor float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		floor = float64(pts[180-10].EdgeCloud.PerClientServer())
	}
	b.ReportMetric(floor, "J/client@full")
}

// BenchmarkFigure7 sweeps 100-2000 clients at capacity 35; metrics: the
// crossover milestones (paper: 406 / 12.5 J @ 630 / 803).
func BenchmarkFigure7(b *testing.B) {
	var m experiments.Figure7Milestones
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure7(35)
		if err != nil {
			b.Fatal(err)
		}
		m = experiments.MilestonesOf(pts)
	}
	b.ReportMetric(float64(m.FirstCrossover), "crossover_clients")
	b.ReportMetric(float64(m.PeakAdvantage), "peak_J")
	b.ReportMetric(float64(m.PermanentFrom), "permanent_clients")
}

// BenchmarkFigure8 runs the four loss-variant sweeps; metric: the loss-A
// full-server floor (paper: ~186 J/client).
func BenchmarkFigure8(b *testing.B) {
	var floorA float64
	for i := 0; i < b.N; i++ {
		for _, v := range []experiments.LossVariant{
			experiments.LossA, experiments.LossB, experiments.LossC, experiments.LossAll,
		} {
			pts, err := experiments.Figure8(v)
			if err != nil {
				b.Fatal(err)
			}
			if v == experiments.LossA {
				floorA = float64(pts[180-10].EdgeCloud.PerClientServer())
			}
		}
	}
	b.ReportMetric(floorA, "lossA_J/client")
}

// BenchmarkFigure9 runs the all-losses cap-35 sweep; metric: the number
// of fleet sizes where the edge+cloud scenario still wins (the paper's
// green intervals).
func BenchmarkFigure9(b *testing.B) {
	var wins float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		wins = 0
		for _, p := range pts {
			if p.Diff() > 0 {
				wins++
			}
		}
	}
	b.ReportMetric(wins, "green_points")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------

// BenchmarkAblationFillPolicy contrasts the paper's sequential slot
// filling with balanced filling under the saturation loss; metric: the
// balanced policy's energy saving.
func BenchmarkAblationFillPolicy(b *testing.B) {
	svc, err := core.NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.DefaultServer(10)
	l := core.PaperLosses(true, false, false)
	var saving float64
	for i := 0; i < b.N; i++ {
		seq, err := core.Allocate(90, spec, svc, l, core.FillSequential)
		if err != nil {
			b.Fatal(err)
		}
		bal, err := core.Allocate(90, spec, svc, l, core.FillBalanced)
		if err != nil {
			b.Fatal(err)
		}
		saving = float64(seq.TotalServerEnergy() - bal.TotalServerEnergy())
	}
	b.ReportMetric(saving, "J_saved")
}

// BenchmarkAblationSlotCapacity measures the viability tipping point
// (paper: 26 clients per slot).
func BenchmarkAblationSlotCapacity(b *testing.B) {
	svc, err := core.NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	var tipping float64
	for i := 0; i < b.N; i++ {
		min, err := core.MinParallelForViability(svc, 44.6, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		tipping = float64(min)
	}
	b.ReportMetric(tipping, "clients/slot")
}

// BenchmarkAblationLosses compares the per-client cost of a full server
// under each loss model (capacity 10, 180 clients).
func BenchmarkAblationLosses(b *testing.B) {
	svc, err := core.NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.DefaultServer(10)
	var base, withA float64
	for i := 0; i < b.N; i++ {
		none, err := core.SimulateEdgeCloud(180, spec, svc, core.Losses{}, core.FillSequential, nil)
		if err != nil {
			b.Fatal(err)
		}
		lossA, err := core.SimulateEdgeCloud(180, spec, svc,
			core.PaperLosses(true, false, false), core.FillSequential, nil)
		if err != nil {
			b.Fatal(err)
		}
		base = float64(none.PerClientServer())
		withA = float64(lossA.PerClientServer())
	}
	b.ReportMetric(base, "J_no_loss")
	b.ReportMetric(withA, "J_lossA")
}

// BenchmarkAblationCNNSize measures the FLOPs-vs-size frontier of the
// reference network (quadratic in the input side).
func BenchmarkAblationCNNSize(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f := func(size int) float64 {
			e, _ := power.DefaultEdgeInference().Cost(6000 * float64(size) * float64(size))
			return float64(e)
		}
		ratio = f(200) / f(100)
	}
	b.ReportMetric(ratio, "energy_ratio_200_100")
}

// BenchmarkAblationModelChoice contrasts SVM and CNN edge cycles
// (paper: only 1.2 J apart).
func BenchmarkAblationModelChoice(b *testing.B) {
	pi, cloud := power.DefaultPi3B(), power.DefaultCloud()
	var diff float64
	for i := 0; i < b.N; i++ {
		svm, err := routine.Build(pi, cloud, routine.Spec{
			Period: 5 * time.Minute, Model: routine.SVM, Placement: routine.EdgeOnly})
		if err != nil {
			b.Fatal(err)
		}
		cnn, err := routine.Build(pi, cloud, routine.Spec{
			Period: 5 * time.Minute, Model: routine.CNN, Placement: routine.EdgeOnly})
		if err != nil {
			b.Fatal(err)
		}
		diff = float64(cnn.EdgeEnergy() - svm.EdgeEnergy())
	}
	b.ReportMetric(diff, "J_cnn_minus_svm")
}

// ---------------------------------------------------------------------
// Component micro-benchmarks (the substrate hot paths)
// ---------------------------------------------------------------------

// BenchmarkMelSpectrogram measures the paper's feature front end on one
// second of audio.
func BenchmarkMelSpectrogram(b *testing.B) {
	synth, err := audio.NewSynth(audio.Config{SampleRate: 22050, Seconds: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	clip := synth.Clip(0, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.MelSpectrogram(clip, dsp.PaperSTFT(), 128, 22050); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMPredict measures one classical inference.
func BenchmarkSVMPredict(b *testing.B) {
	corpus, err := audio.Corpus(audio.Config{SampleRate: 22050, Seconds: 1, Seed: 1}, 40)
	if err != nil {
		b.Fatal(err)
	}
	res, err := queendetect.TrainSVM(corpus, 22050, 1)
	if err != nil {
		b.Fatal(err)
	}
	clip := corpus[0].Samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Predict(clip, 22050); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocator measures placing 2000 clients onto servers.
func BenchmarkAllocator(b *testing.B) {
	svc, err := core.NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.DefaultServer(35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Allocate(2000, spec, svc, core.Losses{}, core.FillSequential); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks (future-work subsystems)
// ---------------------------------------------------------------------

// BenchmarkServiceBundlePlanning measures the multi-service planner.
func BenchmarkServiceBundlePlanning(b *testing.B) {
	bundle := services.Bundle{
		Kinds: []services.Kind{
			services.QueenDetection, services.PollenDetection,
			services.BeeCounting, services.SwarmPrediction,
		},
		Period: 30 * time.Minute,
	}
	var offloaded float64
	for i := 0; i < b.N; i++ {
		plan, err := services.PlanBundle(bundle, 2000, core.DefaultServer(35), core.Losses{})
		if err != nil {
			b.Fatal(err)
		}
		offloaded = 0
		for _, p := range plan.Decisions {
			if p == routine.EdgeCloud {
				offloaded++
			}
		}
	}
	b.ReportMetric(offloaded, "services_offloaded")
}

// BenchmarkAdaptivePolicies runs the week-long policy comparison;
// metric: the forecast policy's data-yield gain over the fixed 10-minute
// baseline.
func BenchmarkAdaptivePolicies(b *testing.B) {
	cfg := adaptive.DefaultConfig()
	cfg.Days = 3
	var gain float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.PolicyComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(results[3].Routines) / float64(results[0].Routines)
	}
	b.ReportMetric(gain, "yield_vs_fixed10m")
}

// BenchmarkPipingScore measures the swarm service's audio analysis.
func BenchmarkPipingScore(b *testing.B) {
	synth, err := audio.NewSynth(audio.Config{SampleRate: 22050, Seconds: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	clip := synth.Clip(2, 0.6) // QueenPiping
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swarm.PipingScore(clip, 22050); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkedCycle measures one full edge+cloud cycle over
// loopback TCP (handshake excluded).
func BenchmarkNetworkedCycle(b *testing.B) {
	cfg := hivenet.DefaultServerConfig()
	cfg.TrainCorpus = 20
	server, err := hivenet.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	go server.Serve() //nolint:errcheck
	defer server.Close()
	agent, err := hivenet.Dial(server.Addr(), hivenet.DefaultAgentConfig("bench"))
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	now := time.Now().UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.RunCycle(0, 0.6, now); err != nil { // QueenPresent
			b.Fatal(err)
		}
	}
}

// BenchmarkSeasonal runs the 12-month energy-balance study at one day
// per month; metric: the June/December harvest ratio.
func BenchmarkSeasonal(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Seasonal(solar.Cachan, 1, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		var june, december float64
		for _, p := range pts {
			switch p.Month {
			case time.June:
				june = float64(p.HarvestPerDay)
			case time.December:
				december = float64(p.HarvestPerDay)
			}
		}
		ratio = june / december
	}
	b.ReportMetric(ratio, "june_vs_december_harvest")
}

// ---------------------------------------------------------------------
// Observability overhead (docs/OBSERVABILITY.md §overhead)
// ---------------------------------------------------------------------

// desLoop drives one simulated event loop: 1000 one-second ticks from a
// fresh calendar. setup attaches (or not) the observability probes.
func desLoop(b *testing.B, setup func(*des.Sim)) {
	b.Helper()
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		s := des.New(start)
		if setup != nil {
			setup(s)
		}
		ticks := 0
		stop, err := s.Every(time.Second, func() { ticks++ })
		if err != nil {
			b.Fatal(err)
		}
		s.Run(start.Add(1000 * time.Second))
		stop()
		if ticks != 1000 {
			b.Fatalf("ticks = %d, want 1000", ticks)
		}
	}
}

// BenchmarkDESLoopBare is the engine with no observability pointer set —
// the baseline all other DESLoop benchmarks are compared against.
func BenchmarkDESLoopBare(b *testing.B) {
	desLoop(b, nil)
}

// BenchmarkDESLoopObsDisabled measures the disabled configuration a run
// without -metrics/-trace takes (Instrument with nil registry and
// tracer): the acceptance bar is <= 5% over BenchmarkDESLoopBare.
func BenchmarkDESLoopObsDisabled(b *testing.B) {
	desLoop(b, func(s *des.Sim) { des.Instrument(s, nil, nil, false) })
}

// BenchmarkDESLoopLedgerNil measures the DES loop with a disabled
// (nil) energy ledger consulted on every tick — the configuration a
// run without -ledger takes. The instrumented packages (battery,
// deployment, netsim) all guard entry construction behind a nil check,
// so the disabled cost per tick is one pointer comparison; the
// acceptance bar is <= 5% over BenchmarkDESLoopBare.
func BenchmarkDESLoopLedgerNil(b *testing.B) {
	var lg *ledger.Ledger
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		s := des.New(start)
		ticks := 0
		stop, err := s.Every(time.Second, func() {
			ticks++
			if lg != nil {
				lg.Append(ledger.Entry{
					T: s.Now(), Hive: "bench", Device: "edge", Component: "pi3b",
					Task: "tick", Dir: ledger.Consume, Joules: 1, Store: "battery",
				})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(start.Add(1000 * time.Second))
		stop()
		if ticks != 1000 {
			b.Fatalf("ticks = %d, want 1000", ticks)
		}
	}
}

// BenchmarkDESLoopObsMetrics measures a live registry counting every
// scheduled/fired event (no tracing).
func BenchmarkDESLoopObsMetrics(b *testing.B) {
	desLoop(b, func(s *des.Sim) { des.Instrument(s, obs.NewRegistry(), nil, false) })
}

// BenchmarkDESLoopObsFullTrace measures the most expensive setting: live
// metrics plus a per-event Chrome trace timeline.
func BenchmarkDESLoopObsFullTrace(b *testing.B) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	desLoop(b, func(s *des.Sim) {
		des.Instrument(s, obs.NewRegistry(), obs.NewTracer(start), true)
	})
}

// BenchmarkDESLoopSteady isolates the event-arena steady state: unlike
// the other DESLoop benchmarks it builds the calendar once outside the
// timer, so each iteration measures 1000 recurring ticks on a warm
// free list — the pooled-event path with zero allocations per tick.
func BenchmarkDESLoopSteady(b *testing.B) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	s := des.New(start)
	ticks := 0
	if _, err := s.Every(time.Second, func() { ticks++ }); err != nil {
		b.Fatal(err)
	}
	s.RunFor(1000 * time.Second) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(1000 * time.Second)
	}
	if ticks < 1000*(b.N+1) {
		b.Fatalf("ticks = %d", ticks)
	}
}

// BenchmarkOptimizer searches the full orchestration grid for a
// 2000-hive, two-service fleet; metric: the optimum's daily fleet energy
// in megajoules.
func BenchmarkOptimizer(b *testing.B) {
	req := optimizer.Requirements{
		Hives:        2000,
		Services:     []services.Kind{services.QueenDetection, services.BeeCounting},
		MaxStaleness: time.Hour,
	}
	var mj float64
	for i := 0; i < b.N; i++ {
		res, err := optimizer.Optimize(req, optimizer.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		mj = float64(res.Best.PerDay) / 1e6
	}
	b.ReportMetric(mj, "MJ/day")
}
