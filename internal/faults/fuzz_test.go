// Fuzz targets for the two parsing/arithmetic surfaces a hostile plan
// file can reach: the JSON plan decoder and the backoff arithmetic.
// Run continuously with `make chaos` (a short -fuzztime smoke) or
// standalone:
//
//	go test ./internal/faults -fuzz FuzzFaultPlanJSON -fuzztime 30s

package faults

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzFaultPlanJSON: any input parsePlan accepts must validate, survive
// a marshal/parse round trip, and marshal to stable bytes. Inputs
// carrying NaN, infinities or negative durations must be rejected.
func FuzzFaultPlanJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": 42, "link": {"drop_prob": 0.15}}`))
	f.Add([]byte(`{"link": {"outages": [{"start_s": 3600, "duration_s": 1800}]}}`))
	f.Add([]byte(`{"link": {"bursts": [{"start_s": 0, "duration_s": 60, "drop_prob": 0.9}]}}`))
	f.Add([]byte(`{"node": {"crashes": [{"start_s": 10, "duration_s": 20}], "reboot_s": 120}}`))
	f.Add([]byte(`{"battery": {"brownouts": [{"start_s": 1, "duration_s": 2}]}}`))
	f.Add([]byte(`{"sensors": {"drop_prob": 0.05, "dropouts": [{"start_s": 9, "duration_s": 9}]}}`))
	f.Add([]byte(`{"retry": {"max_attempts": 4, "base_s": 2, "max_s": 30, "multiplier": 2, "jitter_frac": 0.2, "attempt_timeout_s": 5}}`))
	f.Add([]byte(`{"link": {"drop_prob": -0.5}}`))
	f.Add([]byte(`{"link": {"outages": [{"start_s": -1, "duration_s": 1e300}]}}`))
	f.Add([]byte(`{"seed": 1} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := parsePlan(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// Accepted plans are valid by construction...
		if err := plan.Validate(); err != nil {
			t.Fatalf("parsePlan accepted an invalid plan: %v", err)
		}
		// ...carry no non-finite or negative windows...
		for _, w := range windowsOf(plan) {
			if math.IsNaN(w.StartS) || math.IsInf(w.StartS, 0) || w.StartS < 0 ||
				math.IsNaN(w.DurationS) || math.IsInf(w.DurationS, 0) || w.DurationS < 0 {
				t.Fatalf("accepted window %+v", w)
			}
		}
		// ...and round-trip to stable bytes.
		first, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("marshal accepted plan: %v", err)
		}
		back, err := parsePlan(first)
		if err != nil {
			t.Fatalf("re-parse own marshal: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal unstable:\n%s\n%s", first, second)
		}
	})
}

// windowsOf flattens every window in a plan for invariant checks.
func windowsOf(p Plan) []Window {
	var ws []Window
	ws = append(ws, p.Link.Outages...)
	for _, b := range p.Link.Bursts {
		ws = append(ws, b.Window)
	}
	ws = append(ws, p.Node.Crashes...)
	ws = append(ws, p.Battery.Brownouts...)
	ws = append(ws, p.Sensors.Dropouts...)
	return ws
}

// FuzzRetryPolicy: for every policy Validate accepts, Backoff never
// returns a negative or above-cap delay for any attempt or draw, and a
// full retry episode consumes bounded attempts and finite virtual time.
func FuzzRetryPolicy(f *testing.F) {
	f.Add(4, int64(2_000_000_000), int64(30_000_000_000), 2.0, 0.2, int64(5_000_000_000), 0.5)
	f.Add(1, int64(0), int64(0), 1.0, 0.0, int64(0), 0.0)
	f.Add(64, int64(1), int64(1_000_000_000_000), 1e300, 1.0, int64(3_600_000_000_000), 0.999999)
	f.Add(8, int64(-5), int64(10), 0.5, -0.1, int64(-1), 2.0)

	f.Fuzz(func(t *testing.T, attempts int, baseNs, maxNs int64, mult, jitter float64, timeoutNs int64, u float64) {
		p := RetryPolicy{
			MaxAttempts:    attempts,
			Base:           time.Duration(baseNs),
			Max:            time.Duration(maxNs),
			Multiplier:     mult,
			JitterFrac:     jitter,
			AttemptTimeout: time.Duration(timeoutNs),
		}
		if p.Validate() != nil {
			return // invalid policies never reach Backoff in production
		}
		if p.MaxAttempts > MaxAttemptBudget {
			t.Fatalf("validated policy exceeds the attempt budget: %d", p.MaxAttempts)
		}
		var total time.Duration
		for a := 1; a <= p.MaxAttempts; a++ {
			d := p.Backoff(a, u)
			if d < 0 {
				t.Fatalf("negative backoff %v at attempt %d (%+v, u=%g)", d, a, p, u)
			}
			if d > p.Max {
				t.Fatalf("backoff %v above cap %v at attempt %d (%+v, u=%g)", d, p.Max, a, p, u)
			}
			total += d + p.AttemptTimeout
			if total < 0 {
				t.Fatalf("episode time overflowed at attempt %d (%+v)", a, p)
			}
		}
		// The expected-value helpers stay finite and in range for any
		// availability, even out-of-domain ones.
		for _, a := range []float64{math.NaN(), math.Inf(1), -1, 0, 0.5, 1, 2, u} {
			dp := p.DeliveryProb(a)
			if !(dp >= 0 && dp <= 1) {
				t.Fatalf("DeliveryProb(%g) = %g", a, dp)
			}
			ea := p.ExpectedAttempts(a)
			if !(ea >= 1 && ea <= float64(p.MaxAttempts)) {
				t.Fatalf("ExpectedAttempts(%g) = %g", a, ea)
			}
		}
	})
}
