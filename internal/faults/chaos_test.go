// The chaos/property suite: the fault subsystem exercised through the
// real uplink, campaign and deployment layers. Three properties anchor
// it — same seed, same schedule; every joule of retry energy is
// ledgered; and the energy books stay balanced under every plan — plus
// a loss soak from a perfect link to a dead one.

package faults_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/power"
	"beesim/internal/routine"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// TestRetryLedgerEnergyMatchesOutcome: the "uplink retry" ledger
// entries of an upload episode sum exactly to the Outcome's
// RetryEnergy, and each one prices a single failed attempt at transmit
// power times setup-plus-timeout.
func TestRetryLedgerEnergyMatchesOutcome(t *testing.T) {
	cfg := netsim.DefaultConfig()
	link, err := netsim.NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	link.AttachLedger(lg, "chaos-1", func() time.Time { return t0 })
	// An outage covering the whole episode forces every attempt to fail.
	inj, err := faults.NewInjector(faults.Plan{
		Link: faults.LinkFaults{Outages: []faults.Window{{StartS: 0, DurationS: 86400}}},
	}, t0)
	if err != nil {
		t.Fatal(err)
	}
	pol := faults.DefaultRetryPolicy()
	if err := link.AttachFaults(inj, pol, nil); err != nil {
		t.Fatal(err)
	}

	out := link.SendAt(t0, netsim.RoutinePayload())
	if out.Delivered {
		t.Fatal("delivered through a total outage")
	}
	if out.Attempts != pol.MaxAttempts {
		t.Fatalf("attempts = %d, want the full budget %d", out.Attempts, pol.MaxAttempts)
	}

	perAttempt := float64(cfg.TxPower.Energy(cfg.SetupTime + pol.AttemptTimeout))
	var sum float64
	entries := lg.Entries()
	for _, e := range entries {
		if e.Task != "uplink retry" {
			t.Fatalf("unexpected ledger task %q", e.Task)
		}
		if e.Store != "" {
			t.Fatalf("retry entry is store-bound: %+v", e)
		}
		if math.Abs(e.Joules-perAttempt) > 1e-12 {
			t.Fatalf("retry entry = %g J, want %g J", e.Joules, perAttempt)
		}
		sum += e.Joules
	}
	if len(entries) != pol.MaxAttempts {
		t.Fatalf("ledger entries = %d, want one per failed attempt (%d)", len(entries), pol.MaxAttempts)
	}
	if math.Abs(sum-float64(out.RetryEnergy)) > 1e-9 {
		t.Fatalf("ledger retry energy %g != outcome retry energy %g", sum, float64(out.RetryEnergy))
	}
}

// chaosPlans is the table of fault plans the conservation property must
// hold under.
func chaosPlans() map[string]faults.Plan {
	aggressive := faults.RetryPolicy{
		MaxAttempts: 6, Base: time.Second, Max: 10 * time.Second,
		Multiplier: 3, JitterFrac: 0.5, AttemptTimeout: 2 * time.Second,
	}
	return map[string]faults.Plan{
		"empty":      {},
		"lossy link": {Seed: 11, Link: faults.LinkFaults{DropProb: 0.3}},
		"outage plus burst": {Seed: 12, Link: faults.LinkFaults{
			DropProb: 0.1,
			Outages:  []faults.Window{{StartS: 4 * 3600, DurationS: 2 * 3600}},
			Bursts:   []faults.Burst{{Window: faults.Window{StartS: 10 * 3600, DurationS: 3600}, DropProb: 0.95}},
		}},
		"node crashes": {Seed: 13, Node: faults.NodeFaults{
			Crashes: []faults.Window{{StartS: 6 * 3600, DurationS: 1800}, {StartS: 20 * 3600, DurationS: 900}},
			RebootS: 300,
		}},
		"brownouts": {Seed: 14, Battery: faults.BatteryFaults{
			Brownouts: []faults.Window{{StartS: 2 * 3600, DurationS: 1200}},
		}},
		"sensor dropouts": {Seed: 15, Sensors: faults.SensorFaults{
			DropProb: 0.2,
			Dropouts: []faults.Window{{StartS: 8 * 3600, DurationS: 3600}},
		}},
		"everything at once": {Seed: 16,
			Link:    faults.LinkFaults{DropProb: 0.25, Outages: []faults.Window{{StartS: 3 * 3600, DurationS: 3600}}},
			Node:    faults.NodeFaults{Crashes: []faults.Window{{StartS: 15 * 3600, DurationS: 600}}, RebootS: 120},
			Battery: faults.BatteryFaults{Brownouts: []faults.Window{{StartS: 22 * 3600, DurationS: 1800}}},
			Sensors: faults.SensorFaults{DropProb: 0.1},
			Retry:   &aggressive,
		},
	}
}

// TestConservationGreenUnderEveryPlan: a full deployment day under each
// chaos plan keeps the energy ledger's conservation audit green — the
// retry/fallback machinery must never mint or lose joules.
func TestConservationGreenUnderEveryPlan(t *testing.T) {
	for name, plan := range chaosPlans() {
		plan := plan
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := deployment.DefaultConfig()
			cfg.Days = 1
			cfg.Ledger = ledger.New()
			cfg.Faults = &plan
			tr, err := deployment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ledger.AuditTrip(cfg.Ledger, ledger.DefaultTolerance())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("conservation audit failed under %q: %s (%v)", name, rep.String(), rep.Violations)
			}
			if tr.Wakeups == 0 {
				t.Fatalf("plan %q stalled the deployment: no routines ran", name)
			}
		})
	}
}

// TestFaultyDeploymentDeterminism: two runs of the same faulted
// deployment agree field for field — the chaos machinery introduces no
// hidden state.
func TestFaultyDeploymentDeterminism(t *testing.T) {
	plan := chaosPlans()["everything at once"]
	run := func() *deployment.Trace {
		cfg := deployment.DefaultConfig()
		cfg.Days = 1
		cfg.Faults = &plan
		tr, err := deployment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal faulted runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosSoak sweeps the steady loss rate from a perfect link to a
// dead one and asserts the campaign's global invariants at every point:
// it terminates, conserves every payload, and its fresh delivered count
// never rises as the loss rate climbs (the superset-coupling property
// of the stateless injector).
func TestChaosSoak(t *testing.T) {
	const n = 60
	prevDelivered := n + 1
	for step := 0; step <= 20; step++ {
		p := float64(step) / 20
		st, err := routine.SimulateFaultyCampaign(power.DefaultPi3B(), routine.FaultyCampaignConfig{
			Link:     netsim.DefaultConfig(),
			Plan:     faults.Plan{Seed: 99, Link: faults.LinkFaults{DropProb: p}},
			Start:    t0,
			Period:   10 * time.Minute,
			Routines: n,
		})
		if err != nil {
			t.Fatalf("p=%.2f: %v", p, err)
		}
		if !st.Conserved() {
			t.Fatalf("p=%.2f: payloads not conserved: %+v", p, st)
		}
		budget := faults.DefaultRetryPolicy().MaxAttempts
		if st.Attempts < n || st.Attempts > 2*n*budget {
			t.Fatalf("p=%.2f: implausible attempt count %d", p, st.Attempts)
		}
		if st.Delivered > prevDelivered {
			t.Fatalf("p=%.2f: delivered count rose from %d to %d as loss increased",
				p, prevDelivered, st.Delivered)
		}
		prevDelivered = st.Delivered
		switch {
		case p == 0:
			if st.Delivered != n || st.Attempts != n || st.RetryEnergy != 0 {
				t.Fatalf("lossless campaign took damage: %+v", st)
			}
		case p == 1:
			if st.Delivered != 0 || st.Fallbacks != n {
				t.Fatalf("dead link delivered: %+v", st)
			}
			if st.Dropped == 0 {
				t.Fatalf("dead link never overflowed the buffer: %+v", st)
			}
		}
	}
}

// TestFaultyCampaignDeterminism: the campaign is a pure function of its
// config.
func TestFaultyCampaignDeterminism(t *testing.T) {
	cfg := routine.FaultyCampaignConfig{
		Link:     netsim.DefaultConfig(),
		Plan:     faults.Plan{Seed: 5, Link: faults.LinkFaults{DropProb: 0.4}},
		Start:    t0,
		Period:   10 * time.Minute,
		Routines: 80,
	}
	a, err := routine.SimulateFaultyCampaign(power.DefaultPi3B(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := routine.SimulateFaultyCampaign(power.DefaultPi3B(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal campaigns diverged:\n%+v\n%+v", a, b)
	}
}
