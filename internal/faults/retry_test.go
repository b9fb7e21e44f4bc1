package faults

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestDefaultRetryPolicyValid(t *testing.T) {
	if err := DefaultRetryPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRetryValidateRejects(t *testing.T) {
	ok := DefaultRetryPolicy()
	bad := []RetryPolicy{
		func() RetryPolicy { p := ok; p.MaxAttempts = 0; return p }(),
		func() RetryPolicy { p := ok; p.MaxAttempts = MaxAttemptBudget + 1; return p }(),
		func() RetryPolicy { p := ok; p.Base = -time.Second; return p }(),
		func() RetryPolicy { p := ok; p.Max = ok.Base - time.Second; return p }(),
		func() RetryPolicy { p := ok; p.Multiplier = 0.5; return p }(),
		func() RetryPolicy { p := ok; p.Multiplier = math.NaN(); return p }(),
		func() RetryPolicy { p := ok; p.Multiplier = math.Inf(1); return p }(),
		func() RetryPolicy { p := ok; p.JitterFrac = -0.1; return p }(),
		func() RetryPolicy { p := ok; p.JitterFrac = 1.5; return p }(),
		func() RetryPolicy { p := ok; p.JitterFrac = math.NaN(); return p }(),
		func() RetryPolicy { p := ok; p.AttemptTimeout = -time.Second; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	p := DefaultRetryPolicy()
	for attempt := -1; attempt <= 12; attempt++ {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999999} {
			d := p.Backoff(attempt, u)
			if d < 0 || d > p.Max {
				t.Fatalf("Backoff(%d, %g) = %v outside [0, %v]", attempt, u, d, p.Max)
			}
		}
	}
}

func TestBackoffGrowsGeometricallyUntilCap(t *testing.T) {
	p := DefaultRetryPolicy()
	p.JitterFrac = 0
	if got := p.Backoff(1, 0.5); got != 2*time.Second {
		t.Fatalf("first backoff = %v, want 2 s", got)
	}
	if got := p.Backoff(2, 0.5); got != 4*time.Second {
		t.Fatalf("second backoff = %v, want 4 s", got)
	}
	if got := p.Backoff(10, 0.5); got != p.Max {
		t.Fatalf("deep backoff = %v, want cap %v", got, p.Max)
	}
	// Even an absurd multiplier must land exactly on the cap, not
	// overflow or go negative.
	p.Multiplier = 1e308
	if got := p.Backoff(60, 0.5); got != p.Max {
		t.Fatalf("overflowing backoff = %v, want cap %v", got, p.Max)
	}
}

func TestBackoffJitterSpread(t *testing.T) {
	p := DefaultRetryPolicy() // base 2 s, ±20 %
	lo := p.Backoff(1, 0)
	hi := p.Backoff(1, 0.999999999)
	if lo >= hi {
		t.Fatalf("jitter did not spread: lo %v, hi %v", lo, hi)
	}
	if lo < 1600*time.Millisecond-time.Millisecond || hi > 2400*time.Millisecond+time.Millisecond {
		t.Fatalf("jitter range [%v, %v] outside ±20%% of 2 s", lo, hi)
	}
}

func TestBackoffDegradesBadDraws(t *testing.T) {
	p := DefaultRetryPolicy()
	want := p.Backoff(1, 0.5)
	for _, u := range []float64{math.NaN(), -1, 1, 2, math.Inf(1)} {
		if got := p.Backoff(1, u); got != want {
			t.Fatalf("Backoff(1, %g) = %v, want jitterless %v", u, got, want)
		}
	}
}

func TestDeliveryProbAndExpectedAttempts(t *testing.T) {
	p := DefaultRetryPolicy() // 4 attempts
	if got := p.DeliveryProb(1); got != 1 {
		t.Fatalf("DeliveryProb(1) = %g", got)
	}
	if got := p.DeliveryProb(0); got != 0 {
		t.Fatalf("DeliveryProb(0) = %g", got)
	}
	if got := p.ExpectedAttempts(1); got != 1 {
		t.Fatalf("ExpectedAttempts(1) = %g", got)
	}
	if got := p.ExpectedAttempts(0); got != 4 {
		t.Fatalf("ExpectedAttempts(0) = %g", got)
	}
	// a = 0.5, K = 4: P(delivered) = 1 - 0.5^4 = 0.9375,
	// E[N] = (1 - 0.5^4) / 0.5 = 1.875.
	if got := p.DeliveryProb(0.5); math.Abs(got-0.9375) > 1e-12 {
		t.Fatalf("DeliveryProb(0.5) = %g, want 0.9375", got)
	}
	if got := p.ExpectedAttempts(0.5); math.Abs(got-1.875) > 1e-12 {
		t.Fatalf("ExpectedAttempts(0.5) = %g, want 1.875", got)
	}
	// Out-of-range availabilities clamp instead of exploding.
	if got := p.DeliveryProb(math.NaN()); got != 0 {
		t.Fatalf("DeliveryProb(NaN) = %g", got)
	}
	if got := p.ExpectedAttempts(2); got != 1 {
		t.Fatalf("ExpectedAttempts(2) = %g", got)
	}
}

func TestRetryTax(t *testing.T) {
	p := DefaultRetryPolicy()
	if got := p.RetryTax(1, 100, 200); got != 0 {
		t.Fatalf("tax at full availability = %g, want 0", got)
	}
	// a = 0: K-1 wasted uploads plus the guaranteed fallback.
	if got := p.RetryTax(0, 100, 200); math.Abs(got-(3*100+200)) > 1e-9 {
		t.Fatalf("tax at zero availability = %g, want 500", got)
	}
	// The tax shrinks monotonically as the link heals.
	prev := math.Inf(1)
	for _, a := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tax := p.RetryTax(a, 100, 200)
		if tax > prev {
			t.Fatalf("tax grew as availability rose: %g -> %g at a=%g", prev, tax, a)
		}
		prev = tax
	}
}

func TestRetryPolicyJSONRoundTrip(t *testing.T) {
	p := DefaultRetryPolicy()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back RetryPolicy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip changed the policy: %+v -> %+v", p, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("marshal not stable: %s vs %s", data, again)
	}
}

func TestRetryPolicyJSONRejects(t *testing.T) {
	cases := []string{
		`{"max_attempts": 4, "base_s": 1e300}`,             // overflows a duration
		`{"max_attempts": 4, "unknown": 1}`,                // unknown field
		`{"max_attempts": 4, "base_s": "2"}`,               // wrong type
		`{"max_attempts": 4, "attempt_timeout_s": -1e300}`, // overflow, negative
	}
	for _, src := range cases {
		var p RetryPolicy
		if err := json.Unmarshal([]byte(src), &p); err == nil {
			t.Errorf("accepted %s as %+v", src, p)
		}
	}
	// A merely negative duration parses (so errors can name the field)
	// but must then fail validation.
	var p RetryPolicy
	if err := json.Unmarshal([]byte(`{"max_attempts": 4, "base_s": -2, "max_s": 30, "multiplier": 2}`), &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("negative base survived validation")
	}
}
