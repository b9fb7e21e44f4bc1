// The availability sweep: Figure 6/7 re-asked under a degraded uplink.
//
// The paper's crossover analysis assumes every upload succeeds on the
// first try. Here each availability point prices the edge+cloud cycle
// with the expected retry tax of a link whose attempts succeed with
// probability a — extra attempts re-pay the upload energy, undelivered
// cycles pay the local-inference fallback — and re-runs the full
// client-range sweep, showing how the edge-vs-cloud energy crossover
// shifts (and eventually disappears) as the link degrades.

package experiments

import (
	"fmt"
	"time"

	"beesim/internal/core"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/report"
	"beesim/internal/rng"
	"beesim/internal/units"
)

// AvailabilityConfig parameterizes an availability sweep: an inner
// client-range sweep (Service/Server/Losses/From/To/Step/Policy, as in
// SweepConfig) evaluated at each point of an availability grid.
type AvailabilityConfig struct {
	Service core.Service
	Server  core.ServerSpec
	Losses  core.Losses
	// Retry is the policy wrapped around each upload; its attempt
	// budget shapes both the delivery probability and the tax.
	Retry faults.RetryPolicy
	// UploadEnergy is the edge energy of one upload attempt;
	// FallbackEnergy the local inference run paid when delivery fails.
	UploadEnergy   units.Joules
	FallbackEnergy units.Joules

	From, To int
	Step     int
	Policy   core.FillPolicy

	// AvailFrom..AvailTo is the availability grid, AvailSteps points
	// inclusive of both ends.
	AvailFrom  float64
	AvailTo    float64
	AvailSteps int

	Seed uint64
	// Workers fans the availability points out; each point's inner
	// client sweep runs serially, and all side effects are committed in
	// a serial pass over the index-ordered results, so the output is
	// byte-identical for every worker count.
	Workers int

	// Metrics, when non-nil, counts evaluated points and observes each
	// point's crossover fleet size.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per availability point on
	// the sweeps' synthetic 1 ms-per-point timeline.
	Tracer *obs.Tracer
	// Ledger, when non-nil, receives two attribution-only consume
	// entries per point (per-client cycle energy of each scenario at
	// the largest fleet), labeled "avail-<a>".
	Ledger *ledger.Ledger
}

// Metric names emitted by an instrumented availability sweep.
const (
	MetricAvailPoints    = "experiments_availability_points_total"
	MetricAvailCrossover = "experiments_availability_crossover_clients"
)

// UploadSamples is how many upload episodes each availability point
// replays through a fault-armed link to measure the latency
// distribution: a day and a half of 10-minute routines, enough for a
// stable p99 over 64-attempt retry budgets. The episodes feed the
// per-point netsim upload histograms, so every point carries its own
// p50/p99 upload latency and delivered fraction.
const UploadSamples = 216

// DefaultAvailabilityConfig mirrors Figure 7 (100-2000 clients, cap-35
// servers, no losses) — the regime where the paper's crossover lives —
// with the default retry policy and the calibrated upload/fallback
// energies of the measured queen-detection routine, over availabilities
// 0.5..1.0 in 11 steps. At availability 1 the crossover sits at the
// fault-free Figure 7 value; degrading the link pushes it toward larger
// fleets until edge+cloud never wins.
func DefaultAvailabilityConfig() (AvailabilityConfig, error) {
	svc, err := defaultService()
	if err != nil {
		return AvailabilityConfig{}, err
	}
	pi := power.DefaultPi3B()
	return AvailabilityConfig{
		Service:        svc,
		Server:         core.DefaultServer(35),
		Retry:          faults.DefaultRetryPolicy(),
		UploadEnergy:   pi.SendAudio().Energy,
		FallbackEnergy: pi.InferCNN().Energy,
		From:           100,
		To:             2000,
		Step:           10,
		Policy:         core.FillSequential,
		AvailFrom:      0.5,
		AvailTo:        1.0,
		AvailSteps:     11,
		Seed:           1,
	}, nil
}

// validate rejects degenerate availability grids.
func (cfg AvailabilityConfig) validate() error {
	if cfg.AvailSteps < 1 {
		return fmt.Errorf("experiments: availability sweep needs AvailSteps >= 1, got %d", cfg.AvailSteps)
	}
	if !(cfg.AvailFrom >= 0 && cfg.AvailFrom <= 1) || !(cfg.AvailTo >= 0 && cfg.AvailTo <= 1) {
		return fmt.Errorf("experiments: availability range [%g, %g] outside [0, 1]",
			cfg.AvailFrom, cfg.AvailTo)
	}
	if cfg.AvailTo < cfg.AvailFrom {
		return fmt.Errorf("experiments: inverted availability range [%g, %g]",
			cfg.AvailFrom, cfg.AvailTo)
	}
	return cfg.Retry.Validate()
}

// grid expands the availability range into its evaluated points, in
// ascending order. Each point is computed directly from the index (not
// by repeated addition), so the grid is bit-reproducible.
func (cfg AvailabilityConfig) grid() []float64 {
	out := make([]float64, cfg.AvailSteps)
	if cfg.AvailSteps == 1 {
		out[0] = cfg.AvailFrom
		return out
	}
	span := cfg.AvailTo - cfg.AvailFrom
	for i := range out {
		out[i] = cfg.AvailFrom + span*float64(i)/float64(cfg.AvailSteps-1)
	}
	return out
}

// DegradeService returns svc with its edge+cloud cycle raised by the
// expected retry tax at the given availability. The edge-only cycle
// never touches the uplink, so it is unchanged — which is exactly why
// the crossover moves.
func DegradeService(svc core.Service, avail float64, retry faults.RetryPolicy,
	uploadEnergy, fallbackEnergy units.Joules) core.Service {
	svc.EdgeCloudCycle += units.Joules(
		retry.RetryTax(avail, float64(uploadEnergy), float64(fallbackEnergy)))
	return svc
}

// AvailabilityPoint is one availability evaluated over the full client
// range.
type AvailabilityPoint struct {
	// Availability is the per-attempt success probability.
	Availability float64
	// DeliveryProb is the chance an upload lands within the retry
	// budget; ExpectedAttempts the mean attempts consumed per upload.
	DeliveryProb     float64
	ExpectedAttempts float64
	// FirstCrossover is the smallest fleet size where edge+cloud wins
	// (0 when it never does within the swept range).
	FirstCrossover int
	// PeakAdvantage is the largest per-client saving of edge+cloud
	// over edge-only in the swept range (<= 0 when it never wins).
	PeakAdvantage units.Joules
	// EdgeJClient/CloudJClient are the per-client energies at the
	// largest swept fleet.
	EdgeJClient  units.Joules
	CloudJClient units.Joules
	// UploadP50S/UploadP99S are the measured p50/p99 upload latencies
	// (seconds, virtual time) over the point's replayed episodes; 0 when
	// no episode was delivered.
	UploadP50S float64
	UploadP99S float64
	// DeliveredFrac is the measured delivered fraction of the replayed
	// episodes.
	DeliveredFrac float64
	// Obs is the point's own metrics snapshot (link, retry and upload
	// histograms), ready for per-point SLO evaluation.
	Obs obs.Snapshot
}

// availEval is one availability point's pure evaluation, pre-commit.
// The registry rides along so the commit pass can fold every point's
// histograms into the sweep-level registry in index order.
type availEval struct {
	point AvailabilityPoint
	reg   *obs.Registry
}

// uploadEpisodes replays n upload episodes through a link armed with a
// drop probability of 1-avail, observing every episode into reg's
// netsim histograms. Episodes are spaced one routine period apart so
// the fault draws (keyed by virtual instant and attempt) decorrelate.
// Everything is a pure function of (seed, avail, n).
func uploadEpisodes(reg *obs.Registry, seed uint64, avail float64, retry faults.RetryPolicy, n int) error {
	linkCfg := netsim.DefaultConfig()
	linkCfg.Seed = rng.StreamSeed(seed, 1)
	link, err := netsim.NewLink(linkCfg)
	if err != nil {
		return err
	}
	drop := 1 - avail
	if drop < 0 {
		drop = 0
	}
	plan := faults.Plan{
		Seed: rng.StreamSeed(seed, 2),
		Link: faults.LinkFaults{DropProb: drop},
	}
	epoch := time.Unix(0, 0).UTC()
	inj, err := faults.NewInjector(plan, epoch)
	if err != nil {
		return err
	}
	link.Instrument(reg, nil, nil)
	if err := link.AttachFaults(inj, retry, reg); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		link.SendAt(epoch.Add(time.Duration(j)*Period), netsim.RoutinePayload())
	}
	return nil
}

// AvailabilitySweep evaluates the client-range sweep at every point of
// the availability grid. Points fan out across cfg.Workers workers;
// each point degrades the service by its retry tax and runs the inner
// sweep serially on an rng stream keyed by the grid index, and all
// side effects are committed serially over the index-ordered results —
// byte-identical output at any worker count.
func AvailabilitySweep(cfg AvailabilityConfig) ([]AvailabilityPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid := cfg.grid()
	workers := parallel.Resolve(cfg.Workers)
	evals, err := parallel.Map(workers, len(grid), func(i int) (availEval, error) {
		a := grid[i]
		inner := SweepConfig{
			Service: DegradeService(cfg.Service, a, cfg.Retry, cfg.UploadEnergy, cfg.FallbackEnergy),
			Server:  cfg.Server,
			Losses:  cfg.Losses,
			From:    cfg.From, To: cfg.To, Step: cfg.Step,
			Policy:  cfg.Policy,
			Seed:    rng.StreamSeed(cfg.Seed, uint64(i)),
			Workers: 1, // nested parallelism stays in the outer fan-out
		}
		pts, err := Sweep(inner)
		if err != nil {
			return availEval{}, err
		}
		m := MilestonesOf(pts)
		last := pts[len(pts)-1]
		point := AvailabilityPoint{
			Availability:     a,
			DeliveryProb:     cfg.Retry.DeliveryProb(a),
			ExpectedAttempts: cfg.Retry.ExpectedAttempts(a),
			FirstCrossover:   m.FirstCrossover,
			PeakAdvantage:    m.PeakAdvantage,
			EdgeJClient:      last.EdgeOnly.PerClient(),
			CloudJClient:     last.EdgeCloud.PerClient(),
		}
		// Replay upload episodes on the point's own registry: the
		// stream seed is two levels below the sweep seed so it can
		// never collide with the inner sweep's stream.
		reg := obs.NewRegistry()
		if err := uploadEpisodes(reg, rng.StreamSeed(rng.StreamSeed(cfg.Seed, uint64(i)), 1<<32),
			a, cfg.Retry, UploadSamples); err != nil {
			return availEval{}, err
		}
		point.Obs = reg.Snapshot()
		if h, ok := point.Obs.FindHistogram(netsim.MetricUploadSeconds); ok {
			point.UploadP50S, _ = h.Quantile(0.5)
			point.UploadP99S, _ = h.Quantile(0.99)
		}
		if episodes, ok := point.Obs.FindCounter(netsim.MetricUploadEpisodes); ok && episodes > 0 {
			drops, _ := point.Obs.FindCounter(netsim.MetricSendDrops)
			point.DeliveredFrac = (episodes - drops) / episodes
		}
		return availEval{point: point, reg: reg}, nil
	})
	if err != nil {
		return nil, err
	}

	parallel.Record(cfg.Metrics, workers)
	mPoints := cfg.Metrics.Counter(MetricAvailPoints)
	hCrossover := cfg.Metrics.Histogram(MetricAvailCrossover)
	epoch := time.Unix(0, 0).UTC()
	out := make([]AvailabilityPoint, 0, len(grid))
	for i, ev := range evals {
		p := ev.point
		mPoints.Inc()
		if p.FirstCrossover > 0 {
			hCrossover.Observe(float64(p.FirstCrossover))
		}
		// Fold the point's upload histograms into the sweep registry.
		// The commit pass runs in index order at any worker count, so
		// the merged registry snapshots to identical bytes.
		cfg.Metrics.Merge(ev.reg)
		at := epoch.Add(time.Duration(i) * time.Millisecond)
		cfg.Tracer.Span(fmt.Sprintf("availability %.2f", p.Availability), "sweep",
			obs.TidEngine, at, time.Millisecond, map[string]any{
				"availability":    p.Availability,
				"delivery_prob":   p.DeliveryProb,
				"first_crossover": p.FirstCrossover,
				"cloud_j_client":  float64(p.CloudJClient),
			})
		if cfg.Ledger != nil {
			hive := fmt.Sprintf("avail-%.2f", p.Availability)
			cfg.Ledger.Append(ledger.Entry{
				T: at, Hive: hive, Device: "edge", Component: "pi3b",
				Task: "edge-only per-client cycle", Dir: ledger.Consume,
				Joules: float64(p.EdgeJClient), Seconds: Period.Seconds(),
			})
			cfg.Ledger.Append(ledger.Entry{
				T: at, Hive: hive, Device: "fleet", Component: "edge+cloud",
				Task: "degraded edge+cloud per-client cycle", Dir: ledger.Consume,
				Joules: float64(p.CloudJClient), Seconds: Period.Seconds(),
			})
		}
		out = append(out, p)
	}
	return out, nil
}

// AvailabilitySeries converts availability points into chart/CSV
// series over the availability axis: per-client energies of both
// scenarios at the largest fleet, the first-crossover fleet size, the
// delivery probability, and the measured p50/p99 upload latencies.
func AvailabilitySeries(points []AvailabilityPoint) (edge, cloud, crossover, delivered, uploadP50, uploadP99 report.Series, err error) {
	n := len(points)
	x := make([]float64, n)
	ye := make([]float64, n)
	yc := make([]float64, n)
	yx := make([]float64, n)
	yd := make([]float64, n)
	y50 := make([]float64, n)
	y99 := make([]float64, n)
	for i, p := range points {
		x[i] = p.Availability
		ye[i] = float64(p.EdgeJClient)
		yc[i] = float64(p.CloudJClient)
		yx[i] = float64(p.FirstCrossover)
		yd[i] = p.DeliveryProb
		y50[i] = p.UploadP50S
		y99[i] = p.UploadP99S
	}
	if edge, err = report.NewSeries("edge J/client", x, ye); err != nil {
		return
	}
	if cloud, err = report.NewSeries("edge+cloud J/client", x, yc); err != nil {
		return
	}
	if crossover, err = report.NewSeries("first crossover (clients)", x, yx); err != nil {
		return
	}
	if delivered, err = report.NewSeries("delivery probability", x, yd); err != nil {
		return
	}
	if uploadP50, err = report.NewSeries("upload p50 (s)", x, y50); err != nil {
		return
	}
	uploadP99, err = report.NewSeries("upload p99 (s)", x, y99)
	return
}
