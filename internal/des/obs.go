package des

// Observability bridge: Instrument attaches an obs.Registry and/or
// obs.Tracer to a simulation. The engine itself only carries a single
// nil-checked pointer, so an uninstrumented Sim pays one predictable
// branch per arm and per firing — the property the DES-loop benchmarks
// in bench_test.go measure.

import (
	"beesim/internal/obs"
)

// Metric names emitted by an instrumented simulation.
const (
	MetricEventsScheduled = "des_events_scheduled_total"
	MetricEventsFired     = "des_events_fired_total"
	MetricPendingEvents   = "des_pending_events"
)

type simObs struct {
	scheduled *obs.Counter
	fired     *obs.Counter
	pending   *obs.Gauge
	tr        *obs.Tracer
	traceAll  bool
}

// Instrument wires metrics and tracing into the simulation. Either
// argument may be nil: with a nil registry the counters are no-ops,
// with a nil tracer no timeline is recorded. With both nil the call
// detaches the probes entirely, leaving the engine its one nil-pointer
// branch per arm and per firing.
//
// traceEvents additionally records every arm ("event scheduled") and
// firing ("event fired") as an instant on the engine track — complete
// but verbose; per-package spans usually tell the story with far fewer
// events.
func Instrument(s *Sim, m *obs.Registry, tr *obs.Tracer, traceEvents bool) {
	if m == nil && tr == nil {
		s.o = nil
		return
	}
	s.o = &simObs{
		scheduled: m.Counter(MetricEventsScheduled),
		fired:     m.Counter(MetricEventsFired),
		pending:   m.Gauge(MetricPendingEvents),
		tr:        tr,
		traceAll:  traceEvents,
	}
	if tr != nil {
		tr.SetThreadName(obs.TidEngine, "des engine")
	}
}

func (o *simObs) onArm(s *Sim, t *timer) {
	o.scheduled.Inc()
	o.pending.Set(float64(len(s.cal)))
	if o.traceAll {
		o.tr.Instant("event scheduled", "des", obs.TidEngine, s.now,
			map[string]any{"seq": t.seq, "at_us": t.at.Sub(s.now).Microseconds()})
	}
}

func (o *simObs) onFire(s *Sim, t *timer) {
	o.fired.Inc()
	o.pending.Set(float64(len(s.cal)))
	if o.traceAll {
		o.tr.Instant("event fired", "des", obs.TidEngine, t.at,
			map[string]any{"seq": t.seq})
	}
}
