package loadgen

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"beesim/internal/netsim"
	"beesim/internal/parallel"
	"beesim/internal/slo"
)

// DefaultMaxServers bounds the capacity search when the caller does
// not override it.
const DefaultMaxServers = 64

// DefaultKneeMultipliers is the offered-rate sweep used to map the
// saturation knee around the sized deployment.
var DefaultKneeMultipliers = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 3, 4}

// PlanOptions shape a capacity plan.
type PlanOptions struct {
	// MaxServers is the search ceiling (default DefaultMaxServers).
	MaxServers int
	// Workers bounds concurrency; any value is byte-identical.
	Workers int
}

// Probe is one capacity probe: did `Servers` shards meet the SLO?
type Probe struct {
	Servers  int
	Pass     bool
	Breaches int
	// DeliveredFrac and P99 summarize the probe for the report.
	DeliveredFrac float64
	P99           float64
}

// KneePoint is one offered-rate sweep sample at the sized deployment.
type KneePoint struct {
	Mult          float64
	OfferedPerS   float64
	Offered       int
	Delivered     int
	Rejected      int
	Lost          int
	DeliveredFrac float64
	P50           float64
	P99           float64
	EdgeWh        float64
	ServerWh      float64
	JPerDelivered float64
}

// PlanReport is a full capacity plan: the binary-search trace, the
// minimal satisfying server count, and the saturation knee around it.
type PlanReport struct {
	SpecName string
	SLOName  string
	Seed     uint64
	Hives    int
	Offered  int
	// MinServers is the smallest shard count meeting the SLO, or 0
	// when even MaxServers breaches it.
	MinServers int
	MaxServers int
	Probes     []Probe
	// Report is the SLO evaluation at MinServers (or MaxServers when
	// unsatisfiable).
	Report slo.Report
	Knee   []KneePoint
}

// needsEntries reports whether any objective needs ledger entries.
func needsEntries(spec slo.Spec) bool {
	for _, o := range spec.Objectives {
		if o.Kind == "energy" {
			return true
		}
	}
	return false
}

// probeOnce sizes one candidate: simulate, evaluate, summarize.
func probeOnce(spec LoadSpec, evs []Event, sloSpec slo.Spec, servers, workers int, scale float64) (SimResult, slo.Report, error) {
	sim, err := Simulate(spec, evs, SimOptions{
		Servers:     servers,
		Workers:     workers,
		RateScale:   scale,
		NeedEntries: needsEntries(sloSpec),
	})
	if err != nil {
		return SimResult{}, slo.Report{}, err
	}
	rep, err := slo.Evaluate(sloSpec, slo.Input{
		Snapshot: sim.Registry.Snapshot(),
		Entries:  sim.Entries,
		Window:   seconds(sim.HorizonS),
	})
	if err != nil {
		return SimResult{}, slo.Report{}, err
	}
	return sim, rep, nil
}

// p of the probe's upload-latency histogram (0 with no samples).
func latQ(sim SimResult, q float64) float64 {
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

// Plan sizes the fleet's deployment: binary-search the minimal server
// (shard) count whose simulated replay of the spec's schedule meets
// the SLO, then sweep offered-rate multipliers at that size to map
// the saturation knee. Monotonicity assumption: more shards never
// hurt — true for this admission model, where shards are independent
// and adding one only reduces per-shard load.
func Plan(spec LoadSpec, evs []Event, sloSpec slo.Spec, opt PlanOptions) (PlanReport, error) {
	maxServers := opt.MaxServers
	if maxServers <= 0 {
		maxServers = DefaultMaxServers
	}
	out := PlanReport{
		SpecName:   spec.Name,
		SLOName:    sloSpec.Name,
		Seed:       spec.Seed,
		Hives:      spec.Hives,
		MaxServers: maxServers,
	}

	probe := func(servers int) (SimResult, slo.Report, error) {
		sim, rep, err := probeOnce(spec, evs, sloSpec, servers, opt.Workers, 1)
		if err != nil {
			return SimResult{}, slo.Report{}, err
		}
		out.Offered = sim.Offered
		out.Probes = append(out.Probes, Probe{
			Servers:       servers,
			Pass:          rep.Pass(),
			Breaches:      rep.Breaches(),
			DeliveredFrac: sim.DeliveredFrac(),
			P99:           latQ(sim, 0.99),
		})
		return sim, rep, nil
	}

	// Feasibility first: if the ceiling itself breaches, report that
	// and skip the search. sim and rep always hold the probe at hi,
	// the smallest passing count seen, so the sized deployment's
	// report and its x1 knee point reuse that probe.
	sim, rep, err := probe(maxServers)
	if err != nil {
		return PlanReport{}, err
	}
	sized := maxServers
	if rep.Pass() {
		lo, hi := 1, maxServers
		for lo < hi {
			mid := lo + (hi-lo)/2
			midSim, midRep, err := probe(mid)
			if err != nil {
				return PlanReport{}, err
			}
			if midRep.Pass() {
				hi, sim, rep = mid, midSim, midRep
			} else {
				lo = mid + 1
			}
		}
		out.MinServers = lo
		sized = lo
	}
	out.Report = rep

	// Knee sweep: each multiplier is an independent probe, so they
	// fan out; per-probe shard simulation stays serial to avoid
	// nested pools.
	knee, err := parallel.Map(opt.Workers, len(DefaultKneeMultipliers), func(i int) (KneePoint, error) {
		m := DefaultKneeMultipliers[i]
		ks := sim
		if m != 1 {
			var err error
			ks, err = Simulate(spec, evs, SimOptions{Servers: sized, Workers: 1, RateScale: m})
			if err != nil {
				return KneePoint{}, err
			}
		}
		kp := KneePoint{
			Mult:          m,
			Offered:       ks.Offered,
			Delivered:     ks.Delivered,
			Rejected:      ks.Rejected,
			Lost:          ks.Lost,
			DeliveredFrac: ks.DeliveredFrac(),
			P50:           latQ(ks, 0.5),
			P99:           latQ(ks, 0.99),
			EdgeWh:        ks.EdgeJ / 3600,
			ServerWh:      ks.ServerJ / 3600,
		}
		if ks.HorizonS > 0 {
			kp.OfferedPerS = float64(ks.Offered) / ks.HorizonS
		}
		if ks.Delivered > 0 {
			kp.JPerDelivered = (ks.EdgeJ + ks.ServerJ) / float64(ks.Delivered)
		}
		return kp, nil
	})
	if err != nil {
		return PlanReport{}, err
	}
	out.Knee = knee
	return out, nil
}

// WriteText renders the plan as a deterministic human-readable report.
func (p PlanReport) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity plan: spec %q vs SLO %q (seed %d, %d hives, %d uploads offered)\n",
		p.SpecName, p.SLOName, p.Seed, p.Hives, p.Offered)
	if p.MinServers > 0 {
		fmt.Fprintf(&b, "minimal deployment: %d server(s) (searched 1..%d)\n", p.MinServers, p.MaxServers)
	} else {
		fmt.Fprintf(&b, "UNSATISFIABLE within %d server(s)\n", p.MaxServers)
	}
	b.WriteString("\nprobes:\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  servers\tverdict\tbreaches\tdelivered\tp99_s")
	for _, pr := range p.Probes {
		verdict := "pass"
		if !pr.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "  %d\t%s\t%d\t%.4f\t%.3f\n",
			pr.Servers, verdict, pr.Breaches, pr.DeliveredFrac, pr.P99)
	}
	tw.Flush()

	b.WriteString("\nobjectives at sized deployment:\n")
	tw = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  objective\tkind\tverdict\tvalue\tbound\tburn")
	for _, r := range p.Report.Results {
		verdict := "pass"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%.4g\t%.4g\t%.3f\n",
			r.Name, r.Kind, verdict, r.Value, r.Bound, r.Burn)
	}
	tw.Flush()

	b.WriteString("\nsaturation knee (offered-rate sweep at sized deployment):\n")
	tw = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  xload\toffered/s\tdelivered\trejects\tlost\tp50_s\tp99_s\tedge_Wh\tserver_Wh\tJ/upload")
	for _, k := range p.Knee {
		fmt.Fprintf(tw, "  %.2f\t%.4f\t%.4f\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f\n",
			k.Mult, k.OfferedPerS, k.DeliveredFrac, k.Rejected, k.Lost,
			k.P50, k.P99, k.EdgeWh, k.ServerWh, k.JPerDelivered)
	}
	tw.Flush()
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteKneeCSV emits the knee sweep as CSV for plotting.
func (p PlanReport) WriteKneeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"mult,offered_per_s,offered,delivered,rejected,lost,delivered_frac,p50_s,p99_s,edge_wh,server_wh,j_per_delivered"); err != nil {
		return err
	}
	for _, k := range p.Knee {
		if _, err := fmt.Fprintf(w, "%.4f,%.6f,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			k.Mult, k.OfferedPerS, k.Offered, k.Delivered, k.Rejected, k.Lost,
			k.DeliveredFrac, k.P50, k.P99, k.EdgeWh, k.ServerWh, k.JPerDelivered); err != nil {
			return err
		}
	}
	return nil
}
