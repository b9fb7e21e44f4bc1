package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"beesim/internal/core"
	"beesim/internal/ledger"
	"beesim/internal/routine"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTableI(t *testing.T) {
	tables, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Table I scenarios = %d, want 2 (SVM, CNN)", len(tables))
	}
	totals := map[routine.Model]float64{routine.SVM: 366.3, routine.CNN: 367.5}
	for _, s := range tables {
		want := totals[s.Spec.Model]
		if !almostEq(float64(s.Cycle.EdgeEnergy()), want, 0.2) {
			t.Errorf("%v total = %v, want %v", s.Spec.Model, s.Cycle.EdgeEnergy(), want)
		}
		rendered := renderScenario(s).String()
		if !strings.Contains(rendered, "Sleep") || !strings.Contains(rendered, "Total") {
			t.Errorf("rendered table missing rows:\n%s", rendered)
		}
	}
}

func TestTableII(t *testing.T) {
	tables, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	cloudTotals := map[routine.Model]float64{routine.SVM: 13744.3, routine.CNN: 13806}
	for _, s := range tables {
		if !almostEq(float64(s.Cycle.EdgeEnergy()), 322.0, 0.2) {
			t.Errorf("%v edge total = %v, want 322.0", s.Spec.Model, s.Cycle.EdgeEnergy())
		}
		if !almostEq(float64(s.Cycle.CloudEnergy()), cloudTotals[s.Spec.Model], 2) {
			t.Errorf("%v cloud total = %v, want %v", s.Spec.Model,
				s.Cycle.CloudEnergy(), cloudTotals[s.Spec.Model])
		}
		rendered := renderScenario(s).String()
		if !strings.Contains(rendered, "Receive audio") {
			t.Errorf("rendered Table II missing cloud column:\n%s", rendered)
		}
	}
}

func TestRoutineStatsCampaign(t *testing.T) {
	st, err := RoutineStatsWorkers(319, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(st.MeanDuration.Seconds(), 89, 3) {
		t.Errorf("campaign mean duration = %v, want ~89 s", st.MeanDuration)
	}
	if !almostEq(float64(st.MeanPower), 2.14, 0.02) {
		t.Errorf("campaign mean power = %v, want 2.14 W", st.MeanPower)
	}
}

func TestFigure3(t *testing.T) {
	pts := Figure3()
	if len(pts) != 6 {
		t.Fatalf("figure 3 points = %d, want 6", len(pts))
	}
	if pts[0].Period != 5*time.Minute {
		t.Fatalf("first period = %v", pts[0].Period)
	}
	if !almostEq(float64(pts[0].AvgPower), 1.19, 0.01) {
		t.Errorf("5-min average power = %v, want 1.19 W", pts[0].AvgPower)
	}
	if !almostEq(float64(pts[5].AvgPower), 0.625, 0.04) {
		t.Errorf("120-min average power = %v, want ~0.62 W", pts[5].AvgPower)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgPower >= pts[i-1].AvgPower {
			t.Fatal("figure 3 not monotone decreasing")
		}
	}
	out, err := figure3Report()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out.Text), "average power (W)") {
		t.Fatalf("figure 3 report has no chart:\n%s", out.Text)
	}
}

func TestFigure6(t *testing.T) {
	pts, err := sweepOf(Figure6Config())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Clients != 10 || pts[len(pts)-1].Clients != 400 {
		t.Fatalf("figure 6 range = %d..%d", pts[0].Clients, pts[len(pts)-1].Clients)
	}
	// Edge per-client flat at 322 J in the edge+cloud scenario.
	for _, p := range pts {
		if !almostEq(float64(p.EdgeCloud.PerClientEdge()), 322, 0.5) {
			t.Fatalf("edge share at %d clients = %v", p.Clients, p.EdgeCloud.PerClientEdge())
		}
	}
	// Server share converges toward ~116 J at multiples of 180.
	at180 := pts[180-10]
	if at180.Clients != 180 {
		t.Fatalf("index arithmetic wrong: %d", at180.Clients)
	}
	if !almostEq(float64(at180.EdgeCloud.PerClientServer()), 116, 2) {
		t.Errorf("server share at 180 = %v, want ~116", at180.EdgeCloud.PerClientServer())
	}
	// Server count steps at the 180-client capacity.
	if pts[170-10].EdgeCloud.Servers != 1 || pts[181-10].EdgeCloud.Servers != 2 {
		t.Errorf("server steps wrong: %d then %d",
			pts[170-10].EdgeCloud.Servers, pts[181-10].EdgeCloud.Servers)
	}
}

func TestFigure7Milestones(t *testing.T) {
	pts, err := sweepOf(Figure7Config(35))
	if err != nil {
		t.Fatal(err)
	}
	m := MilestonesOf(pts)
	if m.FirstCrossover < 400 || m.FirstCrossover > 412 {
		t.Errorf("first crossover = %d, want ~406", m.FirstCrossover)
	}
	if m.PeakClients != 630 {
		t.Errorf("peak at %d clients, want 630", m.PeakClients)
	}
	if !almostEq(float64(m.PeakAdvantage), 12.5, 1.0) {
		t.Errorf("peak advantage = %v, want ~12.5 J", m.PeakAdvantage)
	}
	if m.PermanentFrom < 795 || m.PermanentFrom > 820 {
		t.Errorf("permanent win from = %d, want ~803-815", m.PermanentFrom)
	}
}

func TestFigure7Capacity10NeverWins(t *testing.T) {
	// Below the 26-client tipping point, the edge+cloud scenario can
	// never beat the edge scenario.
	pts, err := sweepOf(Figure7Config(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Diff() > 0 {
			t.Fatalf("capacity 10 won at %d clients", p.Clients)
		}
	}
}

func TestFigure8Variants(t *testing.T) {
	floorA := 0.0
	for _, v := range []LossVariant{LossA, LossB, LossC, LossAll} {
		pts, err := sweepOf(Figure8Config(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(pts) == 0 {
			t.Fatalf("%v: empty sweep", v)
		}
		if v == LossA {
			// Server cost at a full server (~180 clients) near 186 J.
			p := pts[180-10]
			floorA = float64(p.EdgeCloud.PerClientServer())
			if !almostEq(floorA, 186, 4) {
				t.Errorf("loss A floor = %v, want ~186", floorA)
			}
		}
		if v.String() == "" || strings.HasPrefix(v.String(), "LossVariant") {
			t.Errorf("missing name for variant %d", v)
		}
	}
	// Loss-C survival: fewer active than provisioned clients on average.
	pts, err := sweepOf(Figure8Config(LossC))
	if err != nil {
		t.Fatal(err)
	}
	var active, total int
	for _, p := range pts {
		active += p.EdgeCloud.Active
		total += p.EdgeCloud.Clients
	}
	frac := float64(active) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("loss C survival fraction = %v, want ~0.9", frac)
	}
}

func TestFigure9StillHasGreenIntervals(t *testing.T) {
	pts, err := sweepOf(Figure9Config())
	if err != nil {
		t.Fatal(err)
	}
	// The paper: with all losses the cap-35 setting "still has some
	// intervals where the edge+cloud scenario is more energy-efficient".
	wins := 0
	for _, p := range pts {
		if p.Diff() > 0 {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("no winning intervals for edge+cloud under full losses")
	}
	// And it should no longer win everywhere (the losses bite).
	if wins == len(pts) {
		t.Fatal("edge+cloud won everywhere despite losses")
	}
}

func TestFigure9ThreeServerBand(t *testing.T) {
	// Paper: "it is safe to assign three servers when the number of
	// clients is between 1600 and 1750, and the edge+cloud scenario will
	// be more energy-efficient than the edge scenario." Under a
	// self-consistent loss model the win holds in the well-utilized part
	// of the band (see EXPERIMENTS.md); the server count holds throughout.
	pts, err := sweepOf(Figure9Config())
	if err != nil {
		t.Fatal(err)
	}
	greens := 0
	for _, p := range pts {
		if p.Clients >= 1600 && p.Clients <= 1750 {
			if p.EdgeCloud.Servers > 4 {
				t.Fatalf("%d clients needed %d servers", p.Clients, p.EdgeCloud.Servers)
			}
			if p.Diff() > 0 {
				greens++
			}
		}
	}
	if greens < 15 {
		t.Fatalf("edge+cloud wins only %d/151 points in the 1600-1750 band", greens)
	}
}

func TestSweepValidation(t *testing.T) {
	svc, err := core.NewService(routine.CNN, Period)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(SweepConfig{Service: svc, Server: core.DefaultServer(10), From: 0, To: 5, Step: 1}); err == nil {
		t.Error("zero From accepted")
	}
	if _, err := Sweep(SweepConfig{Service: svc, Server: core.DefaultServer(10), From: 10, To: 5, Step: 1}); err == nil || !strings.Contains(err.Error(), "inverted sweep range") {
		t.Errorf("inverted range: err = %v, want descriptive inverted-range error", err)
	}
	// Regression: Step <= 0 used to be silently rewritten to 1, sweeping
	// a range the caller never asked for. It must be a descriptive error.
	for _, step := range []int{0, -3} {
		_, err := Sweep(SweepConfig{Service: svc, Server: core.DefaultServer(10), From: 10, To: 20, Step: step})
		if err == nil || !strings.Contains(err.Error(), "non-positive sweep step") {
			t.Errorf("Step=%d: err = %v, want descriptive step error", step, err)
		}
	}
}

func TestSweepSeriesAndCrossovers(t *testing.T) {
	pts, err := sweepOf(Figure7Config(35))
	if err != nil {
		t.Fatal(err)
	}
	edge, cloud, servers, err := SweepSeries(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(edge.X) != len(pts) || len(cloud.X) != len(pts) || len(servers.X) != len(pts) {
		t.Fatal("series length mismatch")
	}
	xs, err := crossoverClients(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) == 0 {
		t.Fatal("no crossovers found in the cap-35 sweep")
	}
	if xs[0] < 400 || xs[0] > 412 {
		t.Fatalf("first crossover at %v, want ~406", xs[0])
	}
}

func TestFigure2ShortTrace(t *testing.T) {
	tr, err := Figure2Custom(2, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Wakeups == 0 {
		t.Fatal("no wakeups in the trace")
	}
	if tr.Outages == 0 {
		t.Fatal("no night outages in the trace")
	}
}

func TestFigure5SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 trains CNNs")
	}
	cfg := DefaultFigure5()
	cfg.Sizes = []int{20, 40}
	cfg.CorpusSize = 24
	cfg.ClipSeconds = 1
	cfg.Epochs = 2
	pts, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].EdgeEnergy <= pts[0].EdgeEnergy {
		t.Fatal("edge energy not increasing with input size")
	}
	if pts[1].FLOPs/pts[0].FLOPs < 3 {
		t.Fatalf("FLOPs ratio %v, want ~4 (quadratic)", pts[1].FLOPs/pts[0].FLOPs)
	}
	acc, energy, err := figure5Series(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.X) != 2 || len(energy.X) != 2 {
		t.Fatal("series length mismatch")
	}
	if _, err := Figure5(Figure5Config{}); err == nil {
		t.Error("empty size list accepted")
	}
}

func TestSweepLedgerRecordsPerPoint(t *testing.T) {
	svc, err := core.NewService(routine.CNN, Period)
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	points, err := Sweep(SweepConfig{
		Service: svc,
		Server:  core.DefaultServer(10),
		From:    10, To: 14, Step: 2,
		Policy: core.FillSequential,
		Ledger: lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lg.Len(), 2*len(points); got != want {
		t.Fatalf("ledger entries = %d, want %d (2 per point)", got, want)
	}
	for i, e := range lg.Entries() {
		p := points[i/2]
		wantHive := fmt.Sprintf("fleet-%d", p.Clients)
		if e.Hive != wantHive || e.Store != "" {
			t.Fatalf("entry %d = %+v, want hive %q attribution-only", i, e, wantHive)
		}
		want := float64(p.EdgeOnly.PerClient())
		if i%2 == 1 {
			want = float64(p.EdgeCloud.PerClient())
		}
		if e.Joules != want {
			t.Fatalf("entry %d joules = %v, want %v", i, e.Joules, want)
		}
	}
}

// sweepOf runs the sweep of a FigureNConfig result.
func sweepOf(cfg SweepConfig, err error) ([]SweepPoint, error) {
	if err != nil {
		return nil, err
	}
	return Sweep(cfg)
}
