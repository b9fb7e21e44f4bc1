// Package faults is the deterministic fault-injection subsystem: it
// turns a declarative fault plan (link outages, burst packet loss, node
// crash/reboot cycles, battery brownout windows, sensor dropouts) into
// pure predicates over virtual time that the netsim, battery, routine
// and deployment layers consult.
//
// Two properties make the subsystem DES-native and reproducible:
//
//   - Everything is keyed off virtual time. A fault window is an offset
//     from the simulation start, never a wall-clock instant, so a plan
//     replays identically regardless of when or where it runs.
//
//   - Stochastic decisions are stateless. A drop or jitter draw is a
//     pure hash of (plan seed, virtual instant, attempt number) through
//     the internal/rng stream-derivation mix — not a stateful generator
//     — so the verdict for a given upload attempt does not depend on
//     how many other draws happened before it. That makes fault
//     schedules independent of evaluation order (and hence of the
//     worker count), and couples plans across drop probabilities: the
//     set of attempts dropped at p=0.2 is a superset of the set dropped
//     at p=0.1, which is what lets the chaos suite assert a monotone
//     delivered count.
//
// Plans are validated on parse: probabilities must lie in [0, 1] and
// every duration must be finite and non-negative, so NaN, infinities
// and negative windows are rejected before they can reach a simulation.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// maxPlanSeconds bounds every window offset and duration (about 30
// years); beyond it float seconds no longer convert to time.Duration
// without overflow.
const maxPlanSeconds = 1e9

// Window is a half-open interval of virtual time, expressed as float
// seconds offset from the simulation start: [start_s, start_s+duration_s).
type Window struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
}

// Active reports whether t falls inside the window for a simulation
// that began at start.
func (w Window) Active(start, t time.Time) bool {
	off := t.Sub(start).Seconds()
	return off >= w.StartS && off < w.StartS+w.DurationS
}

// validate rejects non-finite, negative or overflowing offsets.
func (w Window) validate() error {
	if err := checkSeconds("start_s", w.StartS); err != nil {
		return err
	}
	return checkSeconds("duration_s", w.DurationS)
}

// checkSeconds rejects NaN, infinite, negative or absurdly large
// second counts — the values that would corrupt virtual-time math.
func checkSeconds(field string, s float64) error {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("faults: %s is not finite", field)
	}
	if s < 0 {
		return fmt.Errorf("faults: negative %s (%g)", field, s)
	}
	if s > maxPlanSeconds {
		return fmt.Errorf("faults: %s exceeds %g s", field, float64(maxPlanSeconds))
	}
	return nil
}

// checkProb rejects probabilities outside [0, 1]; the negated
// comparison also catches NaN.
func checkProb(field string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("faults: %s = %g outside [0, 1]", field, p)
	}
	return nil
}

// Burst is a window during which the link's drop probability rises to
// DropProb (if higher than the steady-state rate).
type Burst struct {
	Window
	DropProb float64 `json:"drop_prob"`
}

// LinkFaults degrades the uplink: a steady per-attempt drop
// probability, hard outage windows, and loss bursts.
type LinkFaults struct {
	// DropProb is the steady-state probability that any single send
	// attempt is lost.
	DropProb float64 `json:"drop_prob,omitempty"`
	// Outages are windows during which every attempt fails.
	Outages []Window `json:"outages,omitempty"`
	// Bursts raise the drop probability inside their windows.
	Bursts []Burst `json:"bursts,omitempty"`
}

func (f LinkFaults) validate() error {
	if err := checkProb("link.drop_prob", f.DropProb); err != nil {
		return err
	}
	for i, w := range f.Outages {
		if err := w.validate(); err != nil {
			return fmt.Errorf("link.outages[%d]: %w", i, err)
		}
	}
	for i, b := range f.Bursts {
		if err := b.validate(); err != nil {
			return fmt.Errorf("link.bursts[%d]: %w", i, err)
		}
		if err := checkProb(fmt.Sprintf("link.bursts[%d].drop_prob", i), b.DropProb); err != nil {
			return err
		}
	}
	return nil
}

// NodeFaults crashes the whole edge node: during a crash window (plus
// the reboot tail appended to it) the node is down — no wake-ups, no
// monitoring, no uploads.
type NodeFaults struct {
	Crashes []Window `json:"crashes,omitempty"`
	// RebootS extends every crash window: after the fault clears the
	// node still needs this many seconds to boot.
	RebootS float64 `json:"reboot_s,omitempty"`
}

func (f NodeFaults) validate() error {
	if err := checkSeconds("node.reboot_s", f.RebootS); err != nil {
		return err
	}
	for i, w := range f.Crashes {
		if err := w.validate(); err != nil {
			return fmt.Errorf("node.crashes[%d]: %w", i, err)
		}
	}
	return nil
}

// BatteryFaults opens the battery's load path: during a brownout
// window the pack delivers nothing, as if the bus converter stalled.
type BatteryFaults struct {
	Brownouts []Window `json:"brownouts,omitempty"`
}

func (f BatteryFaults) validate() error {
	for i, w := range f.Brownouts {
		if err := w.validate(); err != nil {
			return fmt.Errorf("battery.brownouts[%d]: %w", i, err)
		}
	}
	return nil
}

// SensorFaults silences the hive-monitoring sensors: readings inside a
// dropout window, or unlucky under the steady drop probability, are
// simply never produced.
type SensorFaults struct {
	DropProb float64  `json:"drop_prob,omitempty"`
	Dropouts []Window `json:"dropouts,omitempty"`
}

func (f SensorFaults) validate() error {
	if err := checkProb("sensors.drop_prob", f.DropProb); err != nil {
		return err
	}
	for i, w := range f.Dropouts {
		if err := w.validate(); err != nil {
			return fmt.Errorf("sensors.dropouts[%d]: %w", i, err)
		}
	}
	return nil
}

// Plan is a composable fault plan: which failures happen, when, and how
// the system is allowed to retry around them. The zero value is the
// empty plan — an armed injector that never injects anything.
type Plan struct {
	// Seed drives every stochastic fault decision; plans with the same
	// seed produce identical fault schedules.
	Seed    uint64        `json:"seed,omitempty"`
	Link    LinkFaults    `json:"link"`
	Node    NodeFaults    `json:"node"`
	Battery BatteryFaults `json:"battery"`
	Sensors SensorFaults  `json:"sensors"`
	// Retry overrides the default retry policy when non-nil.
	Retry *RetryPolicy `json:"retry,omitempty"`
}

// Validate checks every window, probability and the retry policy.
func (p Plan) Validate() error {
	if err := p.Link.validate(); err != nil {
		return err
	}
	if err := p.Node.validate(); err != nil {
		return err
	}
	if err := p.Battery.validate(); err != nil {
		return err
	}
	if err := p.Sensors.validate(); err != nil {
		return err
	}
	if p.Retry != nil {
		if err := p.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing: no link, node,
// battery or sensor faults. An empty plan behaves exactly like no plan
// (every attempt succeeds on the first try), so consumers check this to
// stay on the fault-free fast path — and its golden, byte-identical
// outputs — when a -faults file turns out to be a no-op.
func (p Plan) Empty() bool {
	return p.Link.DropProb == 0 && len(p.Link.Outages) == 0 && len(p.Link.Bursts) == 0 &&
		len(p.Node.Crashes) == 0 &&
		len(p.Battery.Brownouts) == 0 &&
		p.Sensors.DropProb == 0 && len(p.Sensors.Dropouts) == 0
}

// RetryOrDefault returns the plan's retry policy, or the default when
// the plan does not override it.
func (p Plan) RetryOrDefault() RetryPolicy {
	if p.Retry != nil {
		return *p.Retry
	}
	return DefaultRetryPolicy()
}

// parsePlan decodes and validates a JSON fault plan. Unknown fields and
// trailing garbage are rejected, as are NaN, infinite or negative
// durations and out-of-range probabilities.
func parsePlan(data []byte) (Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: parse plan: %w", err)
	}
	if dec.More() {
		return Plan{}, fmt.Errorf("faults: trailing data after plan")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LoadPlan reads and parses a fault plan file (the -faults flag).
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	return parsePlan(data)
}
