package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"beesim/internal/routine"
	"beesim/internal/stats"
	"beesim/internal/units"
)

func fullServerAlloc(t *testing.T, n int, l Losses) Allocation {
	t.Helper()
	svc := cnnService(t)
	alloc, err := Allocate(n, DefaultServer(10), svc, l, FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

// timelineEnergy integrates a timeline's power profile.
func timelineEnergy(spans []Span) units.Joules {
	var total stats.Kahan
	for _, s := range spans {
		total.Add(float64(s.Energy()))
	}
	return units.Joules(total.Sum())
}

func TestTimelineCoversCycleExactly(t *testing.T) {
	alloc := fullServerAlloc(t, 95, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if spans[0].Start != 0 {
		t.Fatalf("first span starts at %v", spans[0].Start)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("gap between spans %d and %d", i-1, i)
		}
	}
	if last := spans[len(spans)-1]; last.End != 5*time.Minute {
		t.Fatalf("timeline ends at %v, want the full period", last.End)
	}
}

func TestTimelinePhasesAlternate(t *testing.T) {
	alloc := fullServerAlloc(t, 25, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	// 25 clients at cap 10: 3 busy slots => 3 receive+execute pairs, then idle.
	var phases []Phase
	for _, s := range spans {
		phases = append(phases, s.Phase)
	}
	want := []Phase{
		PhaseReceive, PhaseExecute,
		PhaseReceive, PhaseExecute,
		PhaseReceive, PhaseExecute,
		PhaseIdle,
	}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d = %v, want %v", i, phases[i], want[i])
		}
	}
	// Receive spans carry the client counts of the sequential fill.
	if spans[0].Clients != 10 || spans[4].Clients != 5 {
		t.Fatalf("receive clients = %d, %d", spans[0].Clients, spans[4].Clients)
	}
}

// TestTimelineCrossValidatesAnalyticEnergy is the DES cross-check: the
// integral of the materialized power profile must equal the closed-form
// ServerEnergy for every loss configuration.
func TestTimelineCrossValidatesAnalyticEnergy(t *testing.T) {
	cases := []struct {
		name string
		l    Losses
	}{
		{"no loss", Losses{}},
		{"loss A", PaperLosses(true, false, false)},
		{"loss B", PaperLosses(false, true, false)},
		{"loss A+B", PaperLosses(true, true, false)},
		{"figure 9 semantics", Figure9Losses()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{7, 25, 90, 180} {
				alloc := fullServerAlloc(t, n, tc.l)
				for si, srv := range alloc.Servers {
					spans, err := alloc.ServerTimeline(srv)
					if err != nil {
						t.Fatal(err)
					}
					want := float64(alloc.ServerEnergy(srv))
					got := float64(timelineEnergy(spans))
					if math.Abs(got-want) > 1e-6*math.Max(1, want) {
						t.Fatalf("n=%d server %d: timeline %v J vs analytic %v J",
							n, si, got, want)
					}
				}
			}
		})
	}
}

func TestPropertyTimelineMatchesAnalytic(t *testing.T) {
	svc := cnnService(t)
	f := func(nRaw uint16, capRaw uint8, a, b bool) bool {
		n := int(nRaw)%800 + 1
		maxPar := int(capRaw)%30 + 5
		l := PaperLosses(a, b, false)
		alloc, err := Allocate(n, DefaultServer(maxPar), svc, l, FillSequential)
		if err != nil {
			// Loss B can make a slot outlast the period at high capacity;
			// that is a legitimate rejection, not a failure.
			return true
		}
		for _, srv := range alloc.Servers {
			spans, err := alloc.ServerTimeline(srv)
			if err != nil {
				return false
			}
			want := float64(alloc.ServerEnergy(srv))
			got := float64(timelineEnergy(spans))
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotStartSchedule(t *testing.T) {
	alloc := fullServerAlloc(t, 30, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 opens at the cycle start; slot 1 after one slot duration
	// (16 s); empty slots open no upload window.
	var starts []time.Duration
	for _, s := range spans {
		if s.Phase == PhaseReceive {
			starts = append(starts, s.Start)
		}
	}
	if want := []time.Duration{0, 16 * time.Second, 32 * time.Second}; !slices.Equal(starts, want) {
		t.Fatalf("slot starts = %v, want %v", starts, want)
	}
}

func TestTimelineBusyFractionMatchesPaperExample(t *testing.T) {
	// The paper: "given a data transfer and a model execution's duration
	// of 1 minute, a server can allow 5 time slots" in a 5-minute cycle.
	// Our CNN service has 16 s slots -> 18 slots; a full server is busy
	// 288 of 300 s.
	alloc := fullServerAlloc(t, 180, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	var busy time.Duration
	for _, s := range spans {
		if s.Phase != PhaseIdle {
			busy += s.Duration()
		}
	}
	if busy != 288*time.Second {
		t.Fatalf("busy time = %v, want 288 s", busy)
	}
	_ = routine.CNN
}

func TestPhaseString(t *testing.T) {
	for _, p := range []Phase{PhaseIdle, PhaseReceive, PhaseExecute, Phase(9)} {
		if p.String() == "" {
			t.Fatalf("phase %d unnamed", p)
		}
	}
}
