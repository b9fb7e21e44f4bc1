package loadgen

import (
	"fmt"
	"math"
	"testing"

	"beesim/internal/hivenet"
	"beesim/internal/netsim"
	"beesim/internal/slo"
)

// simSpec is a small healthy fleet the simulator tests share.
func simSpec(t *testing.T) LoadSpec {
	t.Helper()
	s, err := ParseSpec([]byte(`{
	  "name": "sim", "seed": 7, "hives": 40, "wake_period_s": 300,
	  "horizon_s": 1800, "clip_s": 0.25, "phase_spread": 1, "shards": 2,
	  "server": {"max_inflight": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimulateAccountingInvariant(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	for _, scale := range []float64{1, 4} {
		res, err := Simulate(spec, evs, SimOptions{Servers: 2, RateScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if res.Offered != spec.Hives*spec.WakesPerHive() {
			t.Fatalf("scale %v: offered %d", scale, res.Offered)
		}
		if res.Delivered+res.Lost != res.Offered {
			t.Fatalf("scale %v: delivered %d + lost %d != offered %d",
				scale, res.Delivered, res.Lost, res.Offered)
		}
		snap := res.Registry.Snapshot()
		if c, _ := snap.FindCounter(netsim.MetricUploadEpisodes); int(c) != res.Offered {
			t.Fatalf("scale %v: episode counter %v != offered %d", scale, c, res.Offered)
		}
		if c, _ := snap.FindCounter(netsim.MetricSendDrops); int(c) != res.Lost {
			t.Fatalf("scale %v: drop counter %v != lost %d", scale, c, res.Lost)
		}
		if c, _ := snap.FindCounter(hivenet.MetricUploads); int(c) != res.Delivered {
			t.Fatalf("scale %v: uploads counter %v != delivered %d", scale, c, res.Delivered)
		}
	}
}

func TestSimulateSaturationRejects(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	// One shard, budget 1, 8x load: the inflight budget must refuse
	// work, and delivery must degrade relative to the healthy probe.
	spec.Server.MaxInflight = 1
	hot, err := Simulate(spec, evs, SimOptions{Servers: 1, RateScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Rejected == 0 {
		t.Fatal("8x load on a budget-1 shard produced no rejects")
	}
	if hot.Lost == 0 {
		t.Fatal("8x load on a budget-1 shard lost nothing — retry budget cannot absorb that")
	}
	spec.Server.MaxInflight = 8
	cool, err := Simulate(spec, evs, SimOptions{Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cool.DeliveredFrac() <= hot.DeliveredFrac() {
		t.Fatalf("cool %.3f <= hot %.3f delivered", cool.DeliveredFrac(), hot.DeliveredFrac())
	}
	snap := hot.Registry.Snapshot()
	if c, _ := snap.FindCounter(hivenet.MetricAdmissionRejects); int(c) != hot.Rejected {
		t.Fatalf("reject counter %v != %d", c, hot.Rejected)
	}
	if h, ok := snap.FindHistogram(hivenet.MetricQueueDepth); !ok || h.Count == 0 {
		t.Fatal("queue-depth histogram missing or empty")
	}
}

func TestSimulateArchiveShed(t *testing.T) {
	spec := simSpec(t)
	spec.Server.MaxArchiveRecords = 10
	evs := Schedule(spec)
	res, err := Simulate(spec, evs, SimOptions{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*res.Delivered - 10
	if res.ArchiveShed != want {
		t.Fatalf("archive shed %d, want %d", res.ArchiveShed, want)
	}
}

func TestSimulateEnergyAndEntries(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	res, err := Simulate(spec, evs, SimOptions{Servers: 2, NeedEntries: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeJ <= 0 || res.ServerJ <= 0 {
		t.Fatalf("energy: edge %v server %v", res.EdgeJ, res.ServerJ)
	}
	// One radio entry per episode, one server entry per delivery.
	if want := res.Offered + res.Delivered; len(res.Entries) != want {
		t.Fatalf("%d entries, want %d", len(res.Entries), want)
	}
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].T.Before(res.Entries[i-1].T) {
			t.Fatalf("entries out of time order at %d", i)
		}
	}
}

func TestPlanFindsMinimalServers(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	sloSpec, err := slo.ParseSpec([]byte(`{
	  "name": "t", "objectives": [
	    {"name": "delivery", "kind": "availability",
	     "total_metric": "netsim_upload_episodes_total",
	     "bad_metric": "netsim_send_drops_total", "min_ratio": 0.95}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Plan(spec, evs, sloSpec, PlanOptions{MaxServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinServers < 1 || rep.MinServers > 8 {
		t.Fatalf("min servers %d", rep.MinServers)
	}
	// The sized deployment passes; one server fewer (if any) fails.
	if !rep.Report.Pass() {
		t.Fatal("sized deployment breaches its own SLO")
	}
	if rep.MinServers > 1 {
		below, err := Simulate(spec, evs, SimOptions{Servers: rep.MinServers - 1})
		if err != nil {
			t.Fatal(err)
		}
		in := slo.Input{Snapshot: below.Registry.Snapshot(), Window: seconds(below.HorizonS)}
		r, err := slo.Evaluate(sloSpec, in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass() {
			t.Fatalf("%d servers also pass; binary search overshot", rep.MinServers-1)
		}
	}
	if len(rep.Knee) != len(DefaultKneeMultipliers) {
		t.Fatalf("knee has %d points", len(rep.Knee))
	}
}

// erlangB is the Erlang-B blocking probability of an M/G/c/c loss
// system offered a erlangs, by the stable recursion
// B(k) = a·B(k-1) / (k + a·B(k-1)), B(0) = 1.
func erlangB(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// TestSimulateMatchesErlangB checks the planner against an analytic
// oracle that shares none of its code. With faults off, a single
// attempt per upload and a full phase spread, each shard is a loss
// system: near-Poisson arrivals (many hives, uniform phases), c =
// max_inflight handlers, no queue, and a constant service time.
// Erlang-B blocking depends on the service time only through its mean,
// so Rejected/Offered must match B(c, a) with a = (hives / servers /
// period) · service. Phases repeat every period, so the sample is one
// period's arrivals per shard; 1,500 hives per shard keep its spread
// under the tolerance.
func TestSimulateMatchesErlangB(t *testing.T) {
	const (
		hivesPerShard = 1500
		periodS       = 600
		tolerance     = 0.03
	)
	shapes := []struct {
		a          float64 // offered erlangs per shard
		c, servers int
	}{
		{1.3, 3, 1}, {2.6, 2, 2}, {3.25, 6, 2}, {4, 4, 4}, {15.1, 10, 3},
	}
	for _, sh := range shapes {
		serviceS := sh.a * periodS / hivesPerShard
		want := erlangB(sh.c, sh.a)
		for _, seed := range []uint64{1, 2, 3, 4} {
			spec, err := ParseSpec([]byte(fmt.Sprintf(`{
			  "name": "erlang", "seed": %d, "hives": %d, "wake_period_s": %d,
			  "horizon_s": %d, "clip_s": 0.25, "phase_spread": 1, "shards": %d,
			  "server": {"max_inflight": %d, "service_s": %g},
			  "retry": {"max_attempts": 1, "base_s": 1, "max_s": 1, "multiplier": 1}
			}`, seed, hivesPerShard*sh.servers, periodS, 8*periodS, sh.servers, sh.c, serviceS)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Simulate(spec, Schedule(spec), SimOptions{Servers: sh.servers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Lost != res.Rejected {
				t.Fatalf("a=%g c=%d seed %d: lost %d != rejected %d with one attempt per upload",
					sh.a, sh.c, seed, res.Lost, res.Rejected)
			}
			got := float64(res.Rejected) / float64(res.Offered)
			if math.Abs(got-want) > tolerance {
				t.Errorf("a=%g c=%d seed %d: reject fraction %.4f, Erlang B %.4f (tolerance %g)",
					sh.a, sh.c, seed, got, want, tolerance)
			}
		}
	}
}
