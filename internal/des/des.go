// Package des is beesim's discrete-event engine: a virtual clock and a
// calendar of recurring timers.
//
// It drives the week-long hive trace of Figure 2 (internal/deployment),
// whose environment sampling and wake-up routine are two fixed-period
// timers. The clock jumps from firing to firing. Determinism comes from
// the calendar order: entries sort by (time, sequence), and every arm or
// re-arm takes the next sequence number, so timers due at the same
// instant fire in the order they were armed. A fired timer is re-armed
// in place, so a running calendar allocates nothing.
package des

import (
	"container/heap"
	"errors"
	"time"
)

// timer is one calendar entry: fn fires at at, then every period.
type timer struct {
	at     time.Time
	seq    uint64
	period time.Duration
	fn     func()
}

// calendar is a min-heap of timers ordered by (at, seq).
type calendar []*timer

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if !c[i].at.Equal(c[j].at) {
		return c[i].at.Before(c[j].at)
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)   { *c = append(*c, x.(*timer)) }
func (c *calendar) Pop() any {
	old := *c
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*c = old[:len(old)-1]
	return t
}

// Sim is a discrete-event simulation. Create one with New; the zero value
// is not usable.
type Sim struct {
	now time.Time
	cal calendar
	seq uint64
	o   *simObs // nil unless Instrument attached probes
}

// New creates a simulation whose clock starts at the given virtual time.
func New(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Every arms a timer that calls fn every period p, first one period from
// now. It may be called from inside a handler. Periods must be positive.
func (s *Sim) Every(p time.Duration, fn func()) error {
	if p <= 0 {
		return errors.New("des: non-positive period")
	}
	s.arm(&timer{at: s.now.Add(p), period: p, fn: fn})
	return nil
}

// arm gives t the next sequence number and puts it on the calendar.
func (s *Sim) arm(t *timer) {
	t.seq = s.seq
	s.seq++
	heap.Push(&s.cal, t)
	if s.o != nil {
		s.o.onArm(s, t)
	}
}

// Run fires every timer due at or before horizon in calendar order,
// re-arming each one period after its firing, and leaves the clock at
// the horizon. The handler sees the clock at its own firing time.
func (s *Sim) Run(horizon time.Time) {
	for len(s.cal) > 0 && !s.cal[0].at.After(horizon) {
		t := heap.Pop(&s.cal).(*timer)
		s.now = t.at
		if s.o != nil {
			s.o.onFire(s, t)
		}
		t.fn()
		t.at = t.at.Add(t.period)
		s.arm(t)
	}
	if s.now.Before(horizon) {
		s.now = horizon
	}
}
