// Package experiments regenerates every table and figure of the paper's
// evaluation. The Table*/Figure* functions produce the structured
// numbers (for tests and benchmarks); Artifacts lists the paper's
// artifacts in order, each rendered to the text, CSV and SVG that
// `beesim reproduce` prints and writes. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"time"

	"beesim/internal/core"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/report"
	"beesim/internal/rng"
	"beesim/internal/routine"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// Period is the paper's standard 5-minute cycle.
const Period = 5 * time.Minute

// ---------------------------------------------------------------------
// Tables I & II
// ---------------------------------------------------------------------

// ScenarioTable is one scenario's task breakdown for the tables.
type ScenarioTable struct {
	Spec  routine.Spec
	Cycle routine.Cycle
}

// TableI builds the edge-scenario breakdowns (SVM and CNN) of Table I.
func TableI() ([]ScenarioTable, error) {
	return buildScenarios(routine.EdgeOnly)
}

// TableII builds the edge+cloud breakdowns (SVM and CNN) of Table II.
func TableII() ([]ScenarioTable, error) {
	return buildScenarios(routine.EdgeCloud)
}

func buildScenarios(p routine.Placement) ([]ScenarioTable, error) {
	pi, cloud := power.DefaultPi3B(), power.DefaultCloud()
	var out []ScenarioTable
	for _, m := range []routine.Model{routine.SVM, routine.CNN} {
		spec := routine.Spec{Period: Period, Model: m, Placement: p}
		cycle, err := routine.Build(pi, cloud, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v/%v: %w", p, m, err)
		}
		out = append(out, ScenarioTable{Spec: spec, Cycle: cycle})
	}
	return out, nil
}

// renderScenario formats one scenario as a text table in the paper's
// layout.
func renderScenario(s ScenarioTable) *report.Table {
	title := fmt.Sprintf("Scenario: %s (%s), %s cycle",
		s.Spec.Placement, s.Spec.Model, s.Spec.Period)
	var t *report.Table
	if len(s.Cycle.CloudTasks) == 0 {
		t = report.NewTable(title, "Edge Task", "Energy of Edge (J)", "Time (s)")
		for _, task := range s.Cycle.EdgeTasks {
			t.MustAddRow(task.Name,
				fmt.Sprintf("%.1f", float64(task.Energy)),
				fmt.Sprintf("%.1f", task.Duration.Seconds()))
		}
		t.MustAddRow("Total",
			fmt.Sprintf("%.1f", float64(s.Cycle.EdgeEnergy())),
			fmt.Sprintf("%.0f", s.Cycle.Duration().Seconds()))
		return t
	}
	t = report.NewTable(title, "Edge Task", "Energy of Edge (J)",
		"Cloud Server Task", "Energy of Cloud Server (J)", "Time (s)")
	for i, task := range s.Cycle.EdgeTasks {
		cloud := s.Cycle.CloudTasks[i]
		t.MustAddRow(task.Name,
			fmt.Sprintf("%.1f", float64(task.Energy)),
			cloud.Name,
			fmt.Sprintf("%.1f", float64(cloud.Energy)),
			fmt.Sprintf("%.1f", task.Duration.Seconds()))
	}
	t.MustAddRow("Total",
		fmt.Sprintf("%.1f", float64(s.Cycle.EdgeEnergy())),
		"",
		fmt.Sprintf("%.1f", float64(s.Cycle.CloudEnergy())),
		fmt.Sprintf("%.0f", s.Cycle.Duration().Seconds()))
	return t
}

// ---------------------------------------------------------------------
// Section IV: routine statistics and Figure 3
// ---------------------------------------------------------------------

// RoutineStatsWorkers replays the campaign fanning fixed-size routine
// batches across the given worker count (0 = process default, 1 =
// serial). The statistics are byte-identical for every worker count.
func RoutineStatsWorkers(n, workers int) (routine.CampaignStats, error) {
	return routine.SimulateCampaignParallel(power.DefaultPi3B(), netsim.DefaultConfig(), n, workers)
}

// Figure3Point is one wake-up-period sample of Figure 3.
type Figure3Point struct {
	Period   time.Duration
	AvgPower units.Watts
}

// Figure3 computes the average consumed power at the paper's six wake-up
// periods (5, 10, 15, 30, 60, 120 minutes).
func Figure3() []Figure3Point {
	pi := power.DefaultPi3B()
	periods := []time.Duration{5, 10, 15, 30, 60, 120}
	out := make([]Figure3Point, len(periods))
	for i, m := range periods {
		p := m * time.Minute
		out[i] = Figure3Point{Period: p, AvgPower: pi.AveragePower(p)}
	}
	return out
}

// ---------------------------------------------------------------------
// Figures 6-9: the scale simulation
// ---------------------------------------------------------------------

// SweepPoint is one fleet size evaluated in both scenarios.
type SweepPoint struct {
	Clients   int
	EdgeOnly  core.CycleCost
	EdgeCloud core.CycleCost
}

// Diff returns edge-only minus edge+cloud per-client energy: positive
// values mean the edge+cloud scenario wins (the green regions of
// Figures 7 and 9).
func (p SweepPoint) Diff() units.Joules {
	return p.EdgeOnly.PerClient() - p.EdgeCloud.PerClient()
}

// SweepConfig parameterizes a client-range sweep.
type SweepConfig struct {
	Service  core.Service
	Server   core.ServerSpec
	Losses   core.Losses
	From, To int
	Step     int
	Policy   core.FillPolicy
	Seed     uint64

	// Workers bounds the fan-out of the point evaluations: 0 uses the
	// process default (parallel.Default, normally NumCPU), 1 forces the
	// serial legacy path. The sweep's output is byte-identical for
	// every worker count — each point draws losses from its own rng
	// stream keyed by the client count, and metrics, trace spans and
	// ledger entries are committed in a serial pass over the
	// index-ordered results.
	Workers int

	// Metrics, when non-nil, counts evaluated points and observes the
	// per-client energies of both scenarios.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per sweep point on a
	// synthetic timeline (1 ms per point from the Unix epoch) so a whole
	// sweep can be profiled in Perfetto: span args carry clients, both
	// per-client energies and the server count.
	Tracer *obs.Tracer
	// Ledger, when non-nil, receives two attribution-only consume
	// entries per sweep point — the per-client cycle energy of each
	// scenario, keyed to the same synthetic timeline and labeled
	// "fleet-N" — so hivereport can break down and diff whole sweeps.
	Ledger *ledger.Ledger
}

// Metric names emitted by an instrumented sweep.
const (
	MetricSweepPoints = "experiments_sweep_points_total"
	MetricSweepEdgeJ  = "experiments_sweep_edge_j_per_client"
	MetricSweepCloudJ = "experiments_sweep_cloud_j_per_client"
)

// validate rejects degenerate sweep ranges with a descriptive error: a
// non-positive step would loop forever (or, with a naive fix-up,
// silently sweep something the caller did not ask for), and an
// inverted or non-positive range would yield a silent empty sweep.
func (cfg SweepConfig) validate() error {
	if cfg.Step <= 0 {
		return fmt.Errorf("experiments: non-positive sweep step %d (a sweep needs Step >= 1)", cfg.Step)
	}
	if cfg.From <= 0 {
		return fmt.Errorf("experiments: sweep must start at a positive fleet size, got From=%d", cfg.From)
	}
	if cfg.To < cfg.From {
		return fmt.Errorf("experiments: inverted sweep range [%d, %d] (From > To yields no points)", cfg.From, cfg.To)
	}
	return nil
}

// clientCounts expands the validated range into the evaluated fleet
// sizes, in ascending order.
func (cfg SweepConfig) clientCounts() []int {
	counts := make([]int, 0, (cfg.To-cfg.From)/cfg.Step+1)
	for n := cfg.From; n <= cfg.To; n += cfg.Step {
		counts = append(counts, n)
	}
	return counts
}

// sweepEval is one point's pure evaluation result, before commit.
type sweepEval struct {
	edge, cloud core.CycleCost
}

// Sweep evaluates both scenarios across a client range. Points are
// independent, so they fan out across cfg.Workers workers; each point
// draws its loss-C losses from a child rng stream keyed by the client
// count (not by evaluation order), and all observable side effects —
// metrics, trace spans, ledger entries — are committed serially over
// the index-ordered results. The output is therefore byte-identical
// for every worker count, including the workers=1 serial path.
func Sweep(cfg SweepConfig) ([]SweepPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	counts := cfg.clientCounts()
	workers := parallel.Resolve(cfg.Workers)
	evals, err := parallel.Map(workers, len(counts), func(i int) (sweepEval, error) {
		n := counts[i]
		// The per-point stream is a stack value (rng.Seeded, not
		// rng.Stream) — still keyed by the stable client count, but no
		// per-point heap allocation.
		var src rng.Source
		var r *rng.Source
		if cfg.Losses.ClientLossFrac > 0 {
			src = rng.Seeded(rng.StreamSeed(cfg.Seed, uint64(n)))
			r = &src
		}
		edge, err := core.SimulateEdgeOnly(n, cfg.Service, cfg.Losses, r)
		if err != nil {
			return sweepEval{}, err
		}
		ec, err := core.SimulateEdgeCloud(n, cfg.Server, cfg.Service, cfg.Losses, cfg.Policy, r)
		if err != nil {
			return sweepEval{}, err
		}
		return sweepEval{edge: edge, cloud: ec}, nil
	})
	if err != nil {
		return nil, err
	}

	parallel.Record(cfg.Metrics, workers)
	mPoints := cfg.Metrics.Counter(MetricSweepPoints)
	hEdgeJ := cfg.Metrics.Histogram(MetricSweepEdgeJ)
	hCloudJ := cfg.Metrics.Histogram(MetricSweepCloudJ)
	// The sweep has no virtual clock of its own; points land on a
	// synthetic 1 ms-per-point timeline so traces stay deterministic.
	epoch := time.Unix(0, 0).UTC()
	out := make([]SweepPoint, 0, len(counts))
	for i, ev := range evals {
		n := counts[i]
		edge, ec := ev.edge, ev.cloud
		mPoints.Inc()
		hEdgeJ.Observe(float64(edge.PerClient()))
		hCloudJ.Observe(float64(ec.PerClient()))
		at := epoch.Add(time.Duration(len(out)) * time.Millisecond)
		// Span is nil-safe, but its name and args (Sprintf, a map, boxed
		// values) would still be built per point — on a 1901-point sweep
		// that is most of the commit loop's garbage — so guard the whole
		// construction for the common untraced run.
		if cfg.Tracer != nil {
			cfg.Tracer.Span(fmt.Sprintf("sweep point %d clients", n), "sweep", obs.TidEngine,
				at, time.Millisecond,
				map[string]any{
					"clients":        n,
					"edge_j_client":  float64(edge.PerClient()),
					"cloud_j_client": float64(ec.PerClient()),
					"servers":        ec.Servers,
				})
		}
		if cfg.Ledger != nil {
			hive := fmt.Sprintf("fleet-%d", n)
			cfg.Ledger.Append(ledger.Entry{
				T: at, Hive: hive, Device: "edge", Component: "pi3b",
				Task: "edge-only per-client cycle", Dir: ledger.Consume,
				Joules: float64(edge.PerClient()), Seconds: Period.Seconds(),
			})
			cfg.Ledger.Append(ledger.Entry{
				T: at, Hive: hive, Device: "fleet", Component: "edge+cloud",
				Task: "edge+cloud per-client cycle", Dir: ledger.Consume,
				Joules: float64(ec.PerClient()), Seconds: Period.Seconds(),
			})
		}
		out = append(out, SweepPoint{Clients: n, EdgeOnly: edge, EdgeCloud: ec})
	}
	return out, nil
}

// defaultService returns the CNN service the scale figures use.
func defaultService() (core.Service, error) {
	return core.NewService(routine.CNN, Period)
}

// Figure6Config returns the sweep configuration of Figure 6: 10-400
// clients at slot capacity 10 with no losses. Callers may attach
// instrumentation or a worker count before passing it to Sweep.
func Figure6Config() (SweepConfig, error) {
	svc, err := defaultService()
	if err != nil {
		return SweepConfig{}, err
	}
	return SweepConfig{
		Service: svc,
		Server:  core.DefaultServer(10),
		From:    10, To: 400, Step: 1,
		Policy: core.FillSequential,
	}, nil
}

// Figure7Config returns the sweep configuration of Figure 7: 100-2000
// clients at the given slot capacity with no losses.
func Figure7Config(maxParallel int) (SweepConfig, error) {
	svc, err := defaultService()
	if err != nil {
		return SweepConfig{}, err
	}
	return SweepConfig{
		Service: svc,
		Server:  core.DefaultServer(maxParallel),
		From:    100, To: 2000, Step: 1,
		Policy: core.FillSequential,
	}, nil
}

// Figure7Milestones extracts the paper's headline numbers from a cap-35
// sweep: the first crossover, the peak advantage, and the fleet size
// beyond which the edge+cloud scenario always wins.
type Figure7Milestones struct {
	FirstCrossover int
	PeakClients    int
	PeakAdvantage  units.Joules
	PermanentFrom  int
}

// MilestonesOf scans a sweep for the Figure-7 milestones.
func MilestonesOf(points []SweepPoint) Figure7Milestones {
	var m Figure7Milestones
	best := units.Joules(0)
	for _, p := range points {
		d := p.Diff()
		if d > 0 && m.FirstCrossover == 0 {
			m.FirstCrossover = p.Clients
		}
		if d > best {
			best = d
			m.PeakClients = p.Clients
			m.PeakAdvantage = d
		}
		if d > 0 {
			if m.PermanentFrom == 0 {
				m.PermanentFrom = p.Clients
			}
		} else {
			m.PermanentFrom = 0
		}
	}
	return m
}

// LossVariant identifies one Figure-8 panel.
type LossVariant int

// The four panels of Figure 8.
const (
	LossA LossVariant = iota // slot saturation penalty
	LossB                    // transfer-time penalty
	LossC                    // Gaussian client loss
	LossAll
)

// String names the variant.
func (v LossVariant) String() string {
	switch v {
	case LossA:
		return "loss A (slot saturation)"
	case LossB:
		return "loss B (transfer penalty)"
	case LossC:
		return "loss C (client loss)"
	case LossAll:
		return "losses A+B+C"
	default:
		return fmt.Sprintf("LossVariant(%d)", int(v))
	}
}

// Losses returns the core loss configuration for the variant.
func (v LossVariant) Losses() core.Losses {
	switch v {
	case LossA:
		return core.PaperLosses(true, false, false)
	case LossB:
		return core.PaperLosses(false, true, false)
	case LossC:
		return core.PaperLosses(false, false, true)
	default:
		return core.PaperLosses(true, true, true)
	}
}

// Figure8Config returns the sweep configuration of one Figure-8 panel:
// 10-400 clients at capacity 10 under the given loss variant.
func Figure8Config(v LossVariant) (SweepConfig, error) {
	svc, err := defaultService()
	if err != nil {
		return SweepConfig{}, err
	}
	return SweepConfig{
		Service: svc,
		Server:  core.DefaultServer(10),
		Losses:  v.Losses(),
		From:    10, To: 400, Step: 1,
		Policy: core.FillSequential,
		Seed:   7,
	}, nil
}

// Figure9Config returns the sweep configuration of Figure 9: 100-2000
// clients at capacity 35 with all losses, comparing both scenarios as
// the paper's final figure does. It uses the loss semantics Figure 9's
// own numbers imply (core.Figure9Losses); Figure 8 uses the harsher
// variant its numbers imply — the paper's two loss figures are mutually
// inconsistent (EXPERIMENTS.md).
func Figure9Config() (SweepConfig, error) {
	svc, err := defaultService()
	if err != nil {
		return SweepConfig{}, err
	}
	return SweepConfig{
		Service: svc,
		Server:  core.DefaultServer(35),
		Losses:  core.Figure9Losses(),
		From:    100, To: 2000, Step: 1,
		Policy: core.FillSequential,
		Seed:   7,
	}, nil
}

// SweepSeries converts sweep points into chart/CSV series: per-client
// energies of both scenarios plus the server count.
func SweepSeries(points []SweepPoint) (edge, cloud, servers report.Series, err error) {
	n := len(points)
	x := make([]float64, n)
	ye := make([]float64, n)
	yc := make([]float64, n)
	ys := make([]float64, n)
	for i, p := range points {
		x[i] = float64(p.Clients)
		ye[i] = float64(p.EdgeOnly.PerClient())
		yc[i] = float64(p.EdgeCloud.PerClient())
		ys[i] = float64(p.EdgeCloud.Servers)
	}
	if edge, err = report.NewSeries("edge J/client", x, ye); err != nil {
		return
	}
	if cloud, err = report.NewSeries("edge+cloud J/client", x, yc); err != nil {
		return
	}
	servers, err = report.NewSeries("servers", x, ys)
	return
}

// crossoverClients returns the client counts where the two scenarios'
// per-client energies cross in a sweep.
func crossoverClients(points []SweepPoint) ([]float64, error) {
	x := make([]float64, len(points))
	a := make([]float64, len(points))
	b := make([]float64, len(points))
	for i, p := range points {
		x[i] = float64(p.Clients)
		a[i] = float64(p.EdgeOnly.PerClient())
		b[i] = float64(p.EdgeCloud.PerClient())
	}
	cs, err := stats.Crossovers(x, a, b)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.X
	}
	return out, nil
}
