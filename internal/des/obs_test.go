package des

import (
	"slices"
	"testing"
	"time"

	"beesim/internal/obs"
)

func TestInstrumentCountsEngineEvents(t *testing.T) {
	s := New(t0)
	m := obs.NewRegistry()
	Instrument(s, m, nil, false)

	// Inside a handler the firing timer is off the calendar, so the
	// gauge reads one less than the armed timers.
	var pendingSeen []float64
	mustEvery(t, s, time.Second, func() {
		pendingSeen = append(pendingSeen, m.Gauge(MetricPendingEvents).Value())
	})
	mustEvery(t, s, 2*time.Second, func() {})
	mustEvery(t, s, time.Hour, func() {})
	if got := m.Gauge(MetricPendingEvents).Value(); got != 3 {
		t.Fatalf("pending gauge = %v after arming, want 3", got)
	}
	s.Run(t0.Add(10 * time.Second))

	if got := m.Counter(MetricEventsFired).Value(); got != 15 {
		t.Fatalf("fired = %v, want 15 (10 + 5)", got)
	}
	if got := m.Counter(MetricEventsScheduled).Value(); got != 3+15 {
		t.Fatalf("scheduled = %v, want 18 (3 arms + 15 re-arms)", got)
	}
	if got := m.Gauge(MetricPendingEvents).Value(); got != 3 {
		t.Fatalf("pending gauge = %v after Run, want 3", got)
	}
	if want := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}; !slices.Equal(pendingSeen, want) {
		t.Fatalf("gauge inside handler = %v, want %v", pendingSeen, want)
	}
}

func TestInstrumentTraceEvents(t *testing.T) {
	s := New(t0)
	tr := obs.NewTracer(t0)
	Instrument(s, nil, tr, true)
	mustEvery(t, s, time.Second, func() {})
	s.Run(t0.Add(2 * time.Second))

	type instant struct {
		name string
		ts   int64
		seq  any
		atUS any
	}
	var got []instant
	evs := tr.Events()
	if len(evs) == 0 || evs[0].Name != "thread_name" || evs[0].Args["name"] != "des engine" {
		t.Fatalf("first event = %+v, want the des engine thread name", evs)
	}
	for _, e := range evs[1:] {
		if e.Phase != "i" || e.Cat != "des" || e.TID != obs.TidEngine {
			t.Fatalf("unexpected event %+v", e)
		}
		got = append(got, instant{e.Name, e.TS, e.Args["seq"], e.Args["at_us"]})
	}
	want := []instant{
		{"event scheduled", 0, uint64(0), int64(1e6)},
		{"event fired", 1e6, uint64(0), nil},
		{"event scheduled", 1e6, uint64(1), int64(1e6)},
		{"event fired", 2e6, uint64(1), nil},
		{"event scheduled", 2e6, uint64(2), int64(1e6)},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("engine instants:\n got %v\nwant %v", got, want)
	}
}

// TestUninstrumentRestoresBarePath checks that Instrument with neither a
// registry nor a tracer detaches probes attached earlier.
func TestUninstrumentRestoresBarePath(t *testing.T) {
	s := New(t0)
	m := obs.NewRegistry()
	Instrument(s, m, nil, false)
	Instrument(s, nil, nil, false)
	mustEvery(t, s, time.Second, func() {})
	s.Run(t0.Add(time.Minute))
	if got := m.Counter(MetricEventsFired).Value(); got != 0 {
		t.Fatalf("fired = %v after detaching, want 0", got)
	}
}

func TestInstrumentDisabledChangesNothing(t *testing.T) {
	// The disabled configuration — Instrument with neither a registry
	// nor a tracer — must not change engine behaviour.
	run := func(instr bool) (int, time.Time) {
		s := New(t0)
		if instr {
			Instrument(s, nil, nil, false)
			if s.o != nil {
				t.Fatal("Instrument(nil, nil) left probes attached")
			}
		}
		n := 0
		mustEvery(t, s, time.Second, func() { n++ })
		s.Run(t0.Add(time.Minute))
		return n, s.Now()
	}
	bareN, bareNow := run(false)
	obsN, obsNow := run(true)
	if bareN != obsN || !bareNow.Equal(obsNow) {
		t.Fatalf("disabled instrumentation changed the run: ticks %d vs %d, now %v vs %v",
			bareN, obsN, bareNow, obsNow)
	}
}
