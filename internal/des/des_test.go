package des

import (
	"slices"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func mustEvery(t *testing.T, s *Sim, p time.Duration, fn func()) {
	t.Helper()
	if err := s.Every(p, fn); err != nil {
		t.Fatal(err)
	}
}

// TestAfterOrdering checks that firings come in virtual-time order,
// not arming order: each timer first fires one period after it is armed.
func TestAfterOrdering(t *testing.T) {
	s := New(t0)
	type firing struct {
		name string
		at   time.Duration
	}
	var got []firing
	for _, tm := range []struct {
		name string
		p    time.Duration
	}{{"a", 7 * time.Second}, {"b", 3 * time.Second}, {"c", 5 * time.Second}} {
		mustEvery(t, s, tm.p, func() { got = append(got, firing{tm.name, s.Now().Sub(t0)}) })
	}
	s.Run(t0.Add(10 * time.Second))
	want := []firing{
		{"b", 3 * time.Second}, {"c", 5 * time.Second}, {"b", 6 * time.Second},
		{"a", 7 * time.Second}, {"b", 9 * time.Second}, {"c", 10 * time.Second},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
}

// TestTieBreakIsFIFO pins the calendar order at a shared instant: the
// entry armed (or re-armed) earlier fires first.
func TestTieBreakIsFIFO(t *testing.T) {
	// Same period, armed together: arming order at every tick.
	s := New(t0)
	var order []int
	for i := 0; i < 4; i++ {
		mustEvery(t, s, time.Minute, func() { order = append(order, i) })
	}
	s.Run(t0.Add(3 * time.Minute))
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("same-period order = %v, want %v", order, want)
	}

	// Across re-arms: the 2 s timer is armed first; the 1 s timer's
	// re-arm at t=1 s comes later, so at t=2 s the 2 s timer wins the
	// tie, and at t=4 s it wins again because its re-arm at t=2 s
	// precedes the 1 s timer's re-arm at t=3 s.
	s = New(t0)
	var names []string
	mustEvery(t, s, 2*time.Second, func() { names = append(names, "a") })
	mustEvery(t, s, time.Second, func() { names = append(names, "b") })
	s.Run(t0.Add(4 * time.Second))
	if want := []string{"b", "a", "b", "b", "a", "b"}; !slices.Equal(names, want) {
		t.Fatalf("re-arm order = %v, want %v", names, want)
	}
}

// TestClockAdvances checks that a handler sees the clock at its own
// firing time and that Run leaves the clock at the horizon.
func TestClockAdvances(t *testing.T) {
	s := New(t0)
	var seen []time.Duration
	mustEvery(t, s, 90*time.Second, func() { seen = append(seen, s.Now().Sub(t0)) })
	s.Run(t0.Add(5 * time.Minute))
	if want := []time.Duration{90 * time.Second, 180 * time.Second, 270 * time.Second}; !slices.Equal(seen, want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
	if !s.Now().Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("final clock = %v, want horizon", s.Now())
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New(t0)
	if err := s.Every(-time.Second, func() { t.Fatal("timer with a past first firing ran") }); err == nil {
		t.Fatal("negative period accepted")
	}
	s.Run(t0.Add(time.Minute))
}

func TestEveryRejectsBadPeriod(t *testing.T) {
	s := New(t0)
	if err := s.Every(0, func() { t.Fatal("zero-period timer ran") }); err == nil {
		t.Fatal("zero period accepted")
	}
	s.Run(t0.Add(time.Minute))
}

func TestHorizonStopsBeforeLaterEvents(t *testing.T) {
	s := New(t0)
	ticks := 0
	mustEvery(t, s, 2*time.Hour, func() { ticks++ })
	s.Run(t0.Add(time.Hour))
	if ticks != 0 {
		t.Fatal("timer beyond the horizon fired")
	}
	if !s.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
	// A later Run picks the timer up; a firing exactly at the horizon
	// is due.
	s.Run(t0.Add(4 * time.Hour))
	if ticks != 2 {
		t.Fatalf("ticks = %d after resumed run, want 2", ticks)
	}
	if !s.Now().Equal(t0.Add(4 * time.Hour)) {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
}

func TestRunOnEmptyCalendar(t *testing.T) {
	s := New(t0)
	s.Run(t0.Add(30 * time.Minute))
	if !s.Now().Equal(t0.Add(30 * time.Minute)) {
		t.Fatalf("clock = %v, want horizon on an empty calendar", s.Now())
	}
}

func TestEvery(t *testing.T) {
	s := New(t0)
	count := 0
	mustEvery(t, s, 10*time.Minute, func() { count++ })
	s.Run(t0.Add(time.Hour))
	if count != 6 {
		t.Fatalf("ticks in 1 h at 10 min = %d, want 6", count)
	}
	s.Run(t0.Add(90 * time.Minute))
	if count != 9 {
		t.Fatalf("ticks in 1.5 h at 10 min = %d, want 9", count)
	}
}

// TestNestedScheduling arms a timer from inside another's handler: its
// first firing is one period after that arming, and it then keeps its
// own cadence.
func TestNestedScheduling(t *testing.T) {
	s := New(t0)
	var inner []time.Duration
	armed := false
	mustEvery(t, s, 10*time.Second, func() {
		if !armed {
			armed = true
			mustEvery(t, s, 3*time.Second, func() { inner = append(inner, s.Now().Sub(t0)) })
		}
	})
	s.Run(t0.Add(20 * time.Second))
	if want := []time.Duration{13 * time.Second, 16 * time.Second, 19 * time.Second}; !slices.Equal(inner, want) {
		t.Fatalf("inner timer fired at %v, want %v", inner, want)
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New(t0)
	const n = 500
	horizon := t0.Add(time.Hour)
	period := func(i int) time.Duration { return time.Duration(1+(i*7919)%97) * time.Second }
	counts := make([]int, n)
	last := t0
	for i := range counts {
		mustEvery(t, s, period(i), func() {
			if s.Now().Before(last) {
				t.Fatal("clock went backwards")
			}
			last = s.Now()
			counts[i]++
		})
	}
	s.Run(horizon)
	for i, c := range counts {
		if want := int(horizon.Sub(t0) / period(i)); c != want {
			t.Fatalf("timer %d (period %v) fired %d times, want %d", i, period(i), c, want)
		}
	}
}

// TestEverySteadyStateNoAlloc pins the in-place re-arm: once timers are
// armed, running the calendar allocates nothing.
func TestEverySteadyStateNoAlloc(t *testing.T) {
	s := New(t0)
	ticks := 0
	mustEvery(t, s, time.Second, func() { ticks++ })
	mustEvery(t, s, 3*time.Second, func() { ticks++ })
	if allocs := testing.AllocsPerRun(50, func() {
		s.Run(s.Now().Add(30 * time.Second))
	}); allocs != 0 {
		t.Fatalf("running armed timers allocates %v per Run, want 0", allocs)
	}
	if want := 51 * (30 + 10); ticks != want { // AllocsPerRun adds one warm-up run
		t.Fatalf("ticks = %d, want %d", ticks, want)
	}
}
