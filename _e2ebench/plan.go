package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"beesim/internal/loadgen"
	"beesim/internal/netsim"
	"beesim/internal/rng"
	"beesim/internal/slo"
)

// plan sizes a generated fleet: loadgen.Schedule plus loadgen.Plan
// against the repository's examples/slo_upload.json. It is the only
// workload on the planner's private event loop and its admission model.
// A round is two ops on one seed; the second must print the first's
// report byte for byte.
type plan struct {
	seed    uint64
	slo     slo.Spec
	spec    loadgen.LoadSpec
	report  loadgen.PlanReport
	reports [2][]byte
}

// The generated fleet's fixed shape (README: "Inputs"); the seed draws
// the spec's own seed, the link drop rate and the outage window.
const (
	planHives     = 600
	planHorizonS  = 3600
	planWakeS     = 300
	planMaxServer = loadgen.DefaultMaxServers
)

func (w *plan) round() int    { return 2 }
func (w *plan) finish() error { return nil }

func (w *plan) setup(e *env) error {
	w.seed = e.seed
	data, err := os.ReadFile(filepath.Join(e.root, "examples", "slo_upload.json"))
	if err != nil {
		return err
	}
	w.slo, err = slo.ParseSpec(data)
	return err
}

// planSpec generates the fleet spec for one round seed.
func planSpec(seed uint64) (loadgen.LoadSpec, error) {
	r := rng.New(seed)
	drop := r.Range(0.02, 0.08)
	outage := float64(planWakeS * (1 + r.Intn(planHorizonS/planWakeS-2)))
	return loadgen.ParseSpec([]byte(fmt.Sprintf(`{
  "name": "bench-fleet", "seed": %d, "hives": %d,
  "wake_period_s": %d, "horizon_s": %d, "clip_s": 0.25,
  "phase_spread": 1, "api_reads_per_wake": 0.25, "shards": 2,
  "server": {"max_inflight": 4},
  "faults": {
    "link": {"drop_prob": %.6f, "outages": [{"start_s": %g, "duration_s": 90}]},
    "retry": {"max_attempts": 4, "base_s": 2, "max_s": 30, "multiplier": 2,
              "jitter_frac": 0.2, "attempt_timeout_s": 5}
  }
}`, seed, planHives, planWakeS, planHorizonS, drop, outage)))
}

// roundSeed gives both ops of a round the same seed; the warm-up op
// has a round of its own.
func (w *plan) roundSeed(i int) uint64 {
	if i < 0 {
		return opSeed(w.seed, -1)
	}
	return opSeed(w.seed, i/2)
}

func (w *plan) op(i int, tr *tracer) error {
	spec, err := planSpec(w.roundSeed(i))
	if err != nil {
		return err
	}
	var evs []loadgen.Event
	_ = tr.do("loadgen.schedule", func() error { evs = loadgen.Schedule(spec); return nil })
	var rep loadgen.PlanReport
	if tr != nil {
		rep, err = planTraced(spec, evs, w.slo, tr)
	} else {
		rep, err = loadgen.Plan(spec, evs, w.slo, loadgen.PlanOptions{MaxServers: planMaxServer, Workers: 1})
	}
	if err != nil {
		return err
	}
	tr.count("loadgen.events", float64(len(evs)))
	tr.count("loadgen.simulations", float64(len(rep.Probes)+1+len(rep.Knee)))
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		return err
	}
	w.spec, w.report = spec, rep
	w.reports[(i+2)%2] = buf.Bytes()
	return nil
}

// needsEntries mirrors the planner's rule: energy objectives need the
// simulated ledger entries.
func needsEntries(spec slo.Spec) bool {
	for _, o := range spec.Objectives {
		if o.Kind == "energy" {
			return true
		}
	}
	return false
}

// probe simulates the schedule on servers shards at a rate scale and
// evaluates the SLO on the result.
func probe(spec loadgen.LoadSpec, evs []loadgen.Event, sloSpec slo.Spec, servers int, scale float64,
	tr *tracer, simSpan, evalSpan string) (loadgen.SimResult, slo.Report, error) {
	var sim loadgen.SimResult
	err := tr.do(simSpan, func() (err error) {
		sim, err = loadgen.Simulate(spec, evs, loadgen.SimOptions{
			Servers: servers, Workers: 1, RateScale: scale, NeedEntries: needsEntries(sloSpec),
		})
		return err
	})
	if err != nil {
		return sim, slo.Report{}, err
	}
	var rep slo.Report
	err = tr.do(evalSpan, func() (err error) {
		rep, err = slo.Evaluate(sloSpec, slo.Input{
			Snapshot: sim.Registry.Snapshot(),
			Entries:  sim.Entries,
			Window:   time.Duration(sim.HorizonS * float64(time.Second)),
		})
		return err
	})
	return sim, rep, err
}

// uploadQuantile reads a quantile of a probe's upload-latency histogram.
func uploadQuantile(sim loadgen.SimResult, q float64) float64 {
	h, ok := sim.Registry.Snapshot().FindHistogram(netsim.MetricUploadSeconds)
	if !ok {
		return 0
	}
	v, ok := h.Quantile(q)
	if !ok {
		return 0
	}
	return v
}

// planTraced performs loadgen.Plan from its public parts — feasibility
// probe, binary search, final evaluation, knee sweep — one span per
// Simulate and per SLO evaluation. The quick test checks that it prints
// the same report as loadgen.Plan.
func planTraced(spec loadgen.LoadSpec, evs []loadgen.Event, sloSpec slo.Spec, tr *tracer) (loadgen.PlanReport, error) {
	out := loadgen.PlanReport{
		SpecName: spec.Name, SLOName: sloSpec.Name, Seed: spec.Seed,
		Hives: spec.Hives, MaxServers: planMaxServer,
	}
	search := func(servers int) (bool, error) {
		sim, rep, err := probe(spec, evs, sloSpec, servers, 1, tr, "loadgen.simulate", "slo.evaluate")
		if err != nil {
			return false, err
		}
		out.Offered = sim.Offered
		out.Probes = append(out.Probes, loadgen.Probe{
			Servers: servers, Pass: rep.Pass(), Breaches: rep.Breaches(),
			DeliveredFrac: sim.DeliveredFrac(), P99: uploadQuantile(sim, 0.99),
		})
		return rep.Pass(), nil
	}
	ok, err := search(planMaxServer)
	if err != nil {
		return out, err
	}
	sized := planMaxServer
	if ok {
		lo, hi := 1, planMaxServer
		for lo < hi {
			mid := lo + (hi-lo)/2
			pass, err := search(mid)
			if err != nil {
				return out, err
			}
			if pass {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out.MinServers, sized = lo, lo
	}
	_, rep, err := probe(spec, evs, sloSpec, sized, 1, tr, "loadgen.simulate_sized", "slo.evaluate_sized")
	if err != nil {
		return out, err
	}
	out.Report = rep
	for _, m := range loadgen.DefaultKneeMultipliers {
		sim, _, err := probe(spec, evs, sloSpec, sized, m, tr, "loadgen.simulate", "slo.evaluate")
		if err != nil {
			return out, err
		}
		kp := loadgen.KneePoint{
			Mult: m, Offered: sim.Offered, Delivered: sim.Delivered, Rejected: sim.Rejected, Lost: sim.Lost,
			DeliveredFrac: sim.DeliveredFrac(), P50: uploadQuantile(sim, 0.5), P99: uploadQuantile(sim, 0.99),
			EdgeWh: sim.EdgeJ / 3600, ServerWh: sim.ServerJ / 3600,
		}
		if sim.HorizonS > 0 {
			kp.OfferedPerS = float64(sim.Offered) / sim.HorizonS
		}
		if sim.Delivered > 0 {
			kp.JPerDelivered = (sim.EdgeJ + sim.ServerJ) / float64(sim.Delivered)
		}
		out.Knee = append(out.Knee, kp)
	}
	return out, nil
}

func (w *plan) verify(i int) error {
	spec, rep := w.spec, w.report
	// Every hive's phase lies within one period, so each of its
	// floor(horizon/period) wake-ups falls inside the horizon.
	if want := planHives * (planHorizonS / planWakeS); rep.Offered != want {
		return fmt.Errorf("plan op %d: %d uploads offered, spec implies %d", i, rep.Offered, want)
	}
	if i%2 == 1 {
		if !bytes.Equal(w.reports[0], w.reports[1]) {
			return fmt.Errorf("plan op %d: report differs from the previous op on the same seed", i)
		}
	} else if err := w.verifySizing(spec, rep); err != nil {
		return fmt.Errorf("plan op %d: %w", i, err)
	}
	for k := 1; k < len(rep.Knee); k++ {
		lo, hi := rep.Knee[k-1], rep.Knee[k]
		if hi.Mult <= lo.Mult || hi.DeliveredFrac > lo.DeliveredFrac {
			return fmt.Errorf("plan op %d: delivered fraction rises from %.4f at x%g to %.4f at x%g",
				i, lo.DeliveredFrac, lo.Mult, hi.DeliveredFrac, hi.Mult)
		}
	}
	return nil
}

// verifySizing re-simulates the sized deployment and one server fewer:
// the first must meet the SLO and the second must not.
func (w *plan) verifySizing(spec loadgen.LoadSpec, rep loadgen.PlanReport) error {
	n := rep.MinServers
	if n < 2 {
		return fmt.Errorf("sized server count %d leaves no smaller deployment to refute", n)
	}
	evs := loadgen.Schedule(spec)
	for _, c := range []struct {
		servers int
		pass    bool
	}{{n, true}, {n - 1, false}} {
		_, r, err := probe(spec, evs, w.slo, c.servers, 1, nil, "", "")
		if err != nil {
			return err
		}
		if r.Pass() != c.pass {
			return fmt.Errorf("%d servers: SLO pass = %v, want %v", c.servers, r.Pass(), c.pass)
		}
	}
	return nil
}

func (w *plan) layers() []layer {
	return []layer{
		{metric: "loadgen.schedule_ms", unit: "ms", span: "loadgen.schedule", scale: time.Millisecond},
		{metric: "loadgen.simulate_ms", unit: "ms", span: "loadgen.simulate_sized", scale: time.Millisecond},
		{metric: "loadgen.simulations", unit: "count", count: "loadgen.simulations"},
		{metric: "loadgen.events", unit: "count", count: "loadgen.events"},
		{metric: "slo.evaluate_ms", unit: "ms", span: "slo.evaluate_sized", scale: time.Millisecond},
		// The other probes' spans: counted toward coverage only.
		{metric: "", span: "loadgen.simulate", scale: time.Millisecond},
		{metric: "", span: "slo.evaluate", scale: time.Millisecond},
	}
}
