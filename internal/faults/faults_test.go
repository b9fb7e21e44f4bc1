package faults

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func mustInjector(t *testing.T, plan Plan) *Injector {
	t.Helper()
	in, err := NewInjector(plan, t0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWindowActiveHalfOpen(t *testing.T) {
	w := Window{StartS: 60, DurationS: 30}
	cases := []struct {
		off  time.Duration
		want bool
	}{
		{0, false},
		{59 * time.Second, false},
		{60 * time.Second, true},
		{89 * time.Second, true},
		{89*time.Second + 999*time.Millisecond, true},
		{90 * time.Second, false},
	}
	for _, c := range cases {
		if got := w.Active(t0, t0.Add(c.off)); got != c.want {
			t.Errorf("Active at +%v = %v, want %v", c.off, got, c.want)
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := map[string]string{
		"unknown field":   `{"seed": 1, "surprise": true}`,
		"trailing data":   `{"seed": 1} {"seed": 2}`,
		"negative start":  `{"link": {"outages": [{"start_s": -5, "duration_s": 10}]}}`,
		"negative length": `{"link": {"outages": [{"start_s": 5, "duration_s": -10}]}}`,
		"huge duration":   `{"link": {"outages": [{"start_s": 0, "duration_s": 1e300}]}}`,
		"probability > 1": `{"link": {"drop_prob": 1.5}}`,
		"negative prob":   `{"sensors": {"drop_prob": -0.25}}`,
		"burst prob":      `{"link": {"bursts": [{"start_s": 0, "duration_s": 1, "drop_prob": 2}]}}`,
		"negative reboot": `{"node": {"reboot_s": -1}}`,
		"bad retry":       `{"retry": {"max_attempts": 0, "base_s": 1, "max_s": 2, "multiplier": 2}}`,
		"retry overflow":  `{"retry": {"max_attempts": 4, "base_s": 1e300, "max_s": 2, "multiplier": 2}}`,
		"not a plan":      `[1, 2, 3]`,
	}
	for name, src := range bad {
		if _, err := parsePlan([]byte(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}

func TestParsePlanEmptyIsValid(t *testing.T) {
	p, err := parsePlan([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Retry != nil {
		t.Fatal("empty plan grew a retry policy")
	}
	if p.RetryOrDefault() != DefaultRetryPolicy() {
		t.Fatal("empty plan does not fall back to the default policy")
	}
}

// TestPlanEmpty: only plans that inject nothing are empty; seed and
// retry overrides alone do not make a plan non-empty.
func TestPlanEmpty(t *testing.T) {
	def := DefaultRetryPolicy()
	empties := []Plan{
		{},
		{Seed: 42},
		{Retry: &def},
	}
	for i, p := range empties {
		if !p.Empty() {
			t.Errorf("plan %d should be empty: %+v", i, p)
		}
	}
	w := Window{StartS: 0, DurationS: 60}
	armed := []Plan{
		{Link: LinkFaults{DropProb: 0.1}},
		{Link: LinkFaults{Outages: []Window{w}}},
		{Link: LinkFaults{Bursts: []Burst{{Window: w, DropProb: 0.5}}}},
		{Node: NodeFaults{Crashes: []Window{w}}},
		{Battery: BatteryFaults{Brownouts: []Window{w}}},
		{Sensors: SensorFaults{DropProb: 0.1}},
		{Sensors: SensorFaults{Dropouts: []Window{w}}},
	}
	for i, p := range armed {
		if p.Empty() {
			t.Errorf("plan %d should not be empty: %+v", i, p)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	retry := DefaultRetryPolicy()
	plan := Plan{
		Seed: 42,
		Link: LinkFaults{
			DropProb: 0.15,
			Outages:  []Window{{StartS: 3600, DurationS: 1800}},
			Bursts:   []Burst{{Window: Window{StartS: 7200, DurationS: 600}, DropProb: 0.9}},
		},
		Node:    NodeFaults{Crashes: []Window{{StartS: 10, DurationS: 20}}, RebootS: 120},
		Battery: BatteryFaults{Brownouts: []Window{{StartS: 30, DurationS: 40}}},
		Sensors: SensorFaults{DropProb: 0.05, Dropouts: []Window{{StartS: 50, DurationS: 60}}},
		Retry:   &retry,
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip unstable:\n%s\n%s", data, again)
	}
}

// TestInjectorScheduleDeterminism is the core reproducibility property:
// two injectors armed with the same plan and start produce identical
// verdicts at every probed instant, in any probe order, while a
// different seed produces a different schedule.
func TestInjectorScheduleDeterminism(t *testing.T) {
	plan := Plan{
		Seed:    7,
		Link:    LinkFaults{DropProb: 0.3, Outages: []Window{{StartS: 1000, DurationS: 500}}},
		Sensors: SensorFaults{DropProb: 0.2},
	}
	a := mustInjector(t, plan)
	b := mustInjector(t, plan)
	other := plan
	other.Seed = 8
	c := mustInjector(t, other)

	diverged := false
	// Probe b in reverse order: statelessness means order cannot matter.
	type probe struct {
		at      time.Time
		attempt int
	}
	var probes []probe
	for i := 0; i < 200; i++ {
		for attempt := 1; attempt <= 3; attempt++ {
			probes = append(probes, probe{t0.Add(time.Duration(i) * 37 * time.Second), attempt})
		}
	}
	got := make(map[probe][3]bool, len(probes))
	for _, p := range probes {
		got[p] = [3]bool{a.DropUpload(p.at, p.attempt), a.SensorOK(p.at), a.LinkUp(p.at)}
	}
	for i := len(probes) - 1; i >= 0; i-- {
		p := probes[i]
		want := got[p]
		if b.DropUpload(p.at, p.attempt) != want[0] || b.SensorOK(p.at) != want[1] || b.LinkUp(p.at) != want[2] {
			t.Fatalf("equal seeds diverged at %v attempt %d", p.at, p.attempt)
		}
		if b.JitterU(p.at, p.attempt) != a.JitterU(p.at, p.attempt) {
			t.Fatalf("jitter draws diverged at %v attempt %d", p.at, p.attempt)
		}
		if c.DropUpload(p.at, p.attempt) != want[0] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced the identical drop schedule")
	}
}

// TestDropSupersetCoupling: for a fixed seed, every attempt dropped at a
// lower probability is also dropped at a higher one — the property that
// makes delivered counts monotone across a loss sweep.
func TestDropSupersetCoupling(t *testing.T) {
	low := mustInjector(t, Plan{Seed: 3, Link: LinkFaults{DropProb: 0.1}})
	high := mustInjector(t, Plan{Seed: 3, Link: LinkFaults{DropProb: 0.4}})
	dropsLow, dropsHigh := 0, 0
	for i := 0; i < 3000; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if low.DropUpload(at, 1) {
			dropsLow++
			if !high.DropUpload(at, 1) {
				t.Fatalf("attempt at %v dropped at p=0.1 but delivered at p=0.4", at)
			}
		}
		if high.DropUpload(at, 1) {
			dropsHigh++
		}
	}
	if dropsLow == 0 || dropsHigh <= dropsLow {
		t.Fatalf("coupling test not exercised: %d drops at 0.1, %d at 0.4", dropsLow, dropsHigh)
	}
}

func TestNilInjectorHealthy(t *testing.T) {
	var in *Injector
	at := t0.Add(time.Hour)
	if !in.LinkUp(at) || !in.NodeUp(at) || !in.SensorOK(at) {
		t.Fatal("nil injector reported a fault")
	}
	if in.DropUpload(at, 1) || in.BatteryBrownout(at) {
		t.Fatal("nil injector injected a fault")
	}
	if in.DropProb(at) != 0 {
		t.Fatal("nil injector has a drop probability")
	}
	if u := in.JitterU(at, 1); u != 0.5 {
		t.Fatalf("nil jitter = %g, want 0.5", u)
	}
	if !in.Start().IsZero() {
		t.Fatal("nil injector has a start")
	}
}

func TestOutageAndBurstWindows(t *testing.T) {
	in := mustInjector(t, Plan{
		Seed: 1,
		Link: LinkFaults{
			DropProb: 0.1,
			Outages:  []Window{{StartS: 100, DurationS: 50}},
			Bursts:   []Burst{{Window: Window{StartS: 300, DurationS: 50}, DropProb: 0.8}},
		},
	})
	if !in.LinkUp(t0.Add(99 * time.Second)) {
		t.Fatal("link down before the outage")
	}
	if in.LinkUp(t0.Add(120 * time.Second)) {
		t.Fatal("link up inside the outage")
	}
	if !in.LinkUp(t0.Add(150 * time.Second)) {
		t.Fatal("link down after the outage")
	}
	if p := in.DropProb(t0.Add(200 * time.Second)); p != 0.1 {
		t.Fatalf("steady drop prob = %g, want 0.1", p)
	}
	if p := in.DropProb(t0.Add(320 * time.Second)); p != 0.8 {
		t.Fatalf("burst drop prob = %g, want 0.8", p)
	}
	// A burst weaker than the steady rate must not lower it.
	weak := mustInjector(t, Plan{Link: LinkFaults{
		DropProb: 0.5,
		Bursts:   []Burst{{Window: Window{StartS: 0, DurationS: 10}, DropProb: 0.2}},
	}})
	if p := weak.DropProb(t0.Add(5 * time.Second)); p != 0.5 {
		t.Fatalf("weak burst lowered the drop prob to %g", p)
	}
}

func TestNodeCrashIncludesRebootTail(t *testing.T) {
	in := mustInjector(t, Plan{
		Node: NodeFaults{Crashes: []Window{{StartS: 100, DurationS: 50}}, RebootS: 25},
	})
	if !in.NodeUp(t0.Add(99 * time.Second)) {
		t.Fatal("node down before the crash")
	}
	if in.NodeUp(t0.Add(120 * time.Second)) {
		t.Fatal("node up mid-crash")
	}
	if in.NodeUp(t0.Add(160 * time.Second)) {
		t.Fatal("node up during the reboot tail")
	}
	if !in.NodeUp(t0.Add(175 * time.Second)) {
		t.Fatal("node still down after the reboot tail")
	}
}

func TestBatteryBrownoutWindow(t *testing.T) {
	in := mustInjector(t, Plan{
		Battery: BatteryFaults{Brownouts: []Window{{StartS: 10, DurationS: 5}}},
	})
	if in.BatteryBrownout(t0.Add(9 * time.Second)) {
		t.Fatal("brownout before its window")
	}
	if !in.BatteryBrownout(t0.Add(12 * time.Second)) {
		t.Fatal("no brownout inside the window")
	}
	if in.BatteryBrownout(t0.Add(15 * time.Second)) {
		t.Fatal("brownout after its window")
	}
}

func TestSensorDropoutWindowAndRate(t *testing.T) {
	in := mustInjector(t, Plan{
		Seed:    5,
		Sensors: SensorFaults{DropProb: 0.5, Dropouts: []Window{{StartS: 0, DurationS: 60}}},
	})
	if in.SensorOK(t0.Add(30 * time.Second)) {
		t.Fatal("sensor delivered inside a dropout window")
	}
	ok, lost := 0, 0
	for i := 0; i < 2000; i++ {
		if in.SensorOK(t0.Add(time.Hour + time.Duration(i)*time.Minute)) {
			ok++
		} else {
			lost++
		}
	}
	// At p = 0.5 both verdicts must appear in force.
	if ok < 600 || lost < 600 {
		t.Fatalf("steady sensor rate skewed: %d ok, %d lost", ok, lost)
	}
	// p = 1 silences the sensors entirely, p = 0 never does.
	mute := mustInjector(t, Plan{Sensors: SensorFaults{DropProb: 1}})
	if mute.SensorOK(t0) {
		t.Fatal("p=1 sensor delivered")
	}
	loud := mustInjector(t, Plan{Sensors: SensorFaults{DropProb: 0}})
	if !loud.SensorOK(t0) {
		t.Fatal("p=0 sensor dropped")
	}
}

func TestNewInjectorRejectsInvalidPlan(t *testing.T) {
	_, err := NewInjector(Plan{Link: LinkFaults{DropProb: 2}}, t0)
	if err == nil || !strings.Contains(err.Error(), "drop_prob") {
		t.Fatalf("invalid plan accepted (err = %v)", err)
	}
}
