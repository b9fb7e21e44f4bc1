// Package loadgen is the fleet-scale load layer for internal/hivenet:
// a deterministic, open-loop traffic generator and a capacity planner.
//
// Three pieces share one strict-parsed LoadSpec:
//
//   - Schedule derives the fleet's open-loop arrival schedule — every
//     hive's wake-ups, upload attempts and dashboard reads — as a pure
//     function of (seed, hive, wake-up) through rng.StreamSeed, so the
//     offered load is byte-reproducible at any worker count.
//
//   - Simulate replays that schedule against a queueing model of N
//     hivenet server shards (inflight admission budget, calibrated
//     service and energy model, fault-plan retry storms) entirely in
//     virtual time. Plan binary-searches the minimal shard count that
//     meets an internal/slo spec and maps the saturation knee.
//
//   - Run replays the same schedule at socket level against real
//     hivenet.Server instances — real TCP, real frames, real admission
//     rejects — for stress and soak testing. Offered bytes stay
//     deterministic; only the measured wall-clock latencies vary.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"beesim/internal/faults"
)

// Spec bounds that keep a parsed spec simulatable: a fuzzer (or a
// typo) must not be able to request a quadrillion events.
const (
	// MaxHives bounds the fleet size.
	MaxHives = 1_000_000
	// MaxEvents bounds hives × wake-ups per schedule.
	MaxEvents = 50_000_000
	// MaxSpecSeconds bounds every duration field (about 30 years).
	MaxSpecSeconds = 1e9
	// MinClipSeconds keeps uploads long enough for the 2048-sample
	// queen-detection FFT frame at 22 050 Hz.
	MinClipSeconds = 0.1
	// MaxReadsPerWake bounds dashboard read amplification.
	MaxReadsPerWake = 100
)

// ServerShape is the admission shape the load is offered to: the
// knobs of hivenet.AdmissionConfig plus the planner's service model.
type ServerShape struct {
	// MaxInflight is the per-shard inflight upload budget
	// (hivenet.AdmissionConfig.MaxInflightUploads). 0 = unlimited.
	MaxInflight int `json:"max_inflight"`
	// MaxSessions caps concurrent sessions per shard. 0 = unlimited.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxArchiveRecords caps each shard's resident archive index.
	MaxArchiveRecords int `json:"max_archive_records,omitempty"`
	// ServiceS overrides the planner's per-upload service time; 0 uses
	// the calibrated cloud model (15 s receive + 0.1 s SVM execute).
	ServiceS float64 `json:"service_s,omitempty"`
	// StallMS is the real per-upload handling stall (milliseconds)
	// armed on live servers in run/soak mode, standing in for heavier
	// inference so small fleets can saturate the budget.
	StallMS float64 `json:"stall_ms,omitempty"`
}

// LoadSpec is the versioned description of one fleet workload: who
// wakes when, what they upload, what degrades, and the server shape
// the load is offered to. Parse with ParseSpec (strict: unknown
// fields, NaN and out-of-range values are rejected).
type LoadSpec struct {
	Name string `json:"name"`
	// Seed drives every stochastic choice (phases, jitter, fault
	// draws) through pure rng.StreamSeed derivations.
	Seed uint64 `json:"seed"`
	// Hives is the fleet size.
	Hives int `json:"hives"`
	// WakePeriodS is the upload cadence per hive (the paper's 5-minute
	// wake-up cycle is 300).
	WakePeriodS float64 `json:"wake_period_s"`
	// HorizonS is the campaign length the schedule covers.
	HorizonS float64 `json:"horizon_s"`
	// ClipS is each upload's audio clip length in seconds.
	ClipS float64 `json:"clip_s"`
	// PhaseSpread in [0, 1] spreads hive phases across the wake
	// period: 0 is a synchronized thundering herd, 1 a uniform spread.
	PhaseSpread float64 `json:"phase_spread"`
	// ReadsPerWake is the expected dashboard/API reads generated per
	// wake-up (fractional: 0.1 means one read per ten wake-ups).
	ReadsPerWake float64 `json:"api_reads_per_wake,omitempty"`
	// Shards is the default server shard count offered the load (run
	// mode; the planner searches over shard counts).
	Shards int `json:"shards"`
	// Server is the per-shard admission shape.
	Server ServerShape `json:"server"`
	// Faults optionally degrades the fleet's uplink (drop rates,
	// outage windows) so retry storms ride the schedule; nil is a
	// healthy fleet.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Retry overrides the client retry policy (defaults to the fault
	// plan's policy, or faults.DefaultRetryPolicy).
	Retry *faults.RetryPolicy `json:"retry,omitempty"`
}

// ParseSpec decodes and validates a LoadSpec from strict JSON: unknown
// fields, trailing data, NaN, negative cadences and fleet sizes beyond
// the bounds are all rejected, so a spec that parses is a spec the
// generator can schedule.
func ParseSpec(data []byte) (LoadSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s LoadSpec
	if err := dec.Decode(&s); err != nil {
		return LoadSpec{}, fmt.Errorf("loadgen: parse spec: %w", err)
	}
	if dec.More() {
		return LoadSpec{}, fmt.Errorf("loadgen: parse spec: trailing data after JSON object")
	}
	if err := s.Validate(); err != nil {
		return LoadSpec{}, err
	}
	return s, nil
}

// LoadFile reads and parses a spec file (the -spec flag).
func LoadFile(path string) (LoadSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return LoadSpec{}, fmt.Errorf("loadgen: %w", err)
	}
	return ParseSpec(data)
}

// checkFinite rejects NaN and infinities.
func checkFinite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("loadgen: %s is not finite", field)
	}
	return nil
}

// Validate checks the spec's shape and bounds.
func (s LoadSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: spec needs a name")
	}
	if s.Hives < 1 || s.Hives > MaxHives {
		return fmt.Errorf("loadgen: hives %d outside [1, %d]", s.Hives, MaxHives)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"wake_period_s", s.WakePeriodS},
		{"horizon_s", s.HorizonS},
		{"clip_s", s.ClipS},
		{"phase_spread", s.PhaseSpread},
		{"api_reads_per_wake", s.ReadsPerWake},
		{"server.service_s", s.Server.ServiceS},
		{"server.stall_ms", s.Server.StallMS},
	} {
		if err := checkFinite(f.name, f.v); err != nil {
			return err
		}
	}
	if s.WakePeriodS <= 0 || s.WakePeriodS > MaxSpecSeconds {
		return fmt.Errorf("loadgen: wake_period_s %g outside (0, %g]", s.WakePeriodS, float64(MaxSpecSeconds))
	}
	if s.HorizonS <= 0 || s.HorizonS > MaxSpecSeconds {
		return fmt.Errorf("loadgen: horizon_s %g outside (0, %g]", s.HorizonS, float64(MaxSpecSeconds))
	}
	if s.ClipS < MinClipSeconds || s.ClipS > MaxSpecSeconds {
		return fmt.Errorf("loadgen: clip_s %g outside [%g, %g]", s.ClipS, MinClipSeconds, float64(MaxSpecSeconds))
	}
	if !(s.PhaseSpread >= 0 && s.PhaseSpread <= 1) {
		return fmt.Errorf("loadgen: phase_spread %g outside [0, 1]", s.PhaseSpread)
	}
	if s.ReadsPerWake < 0 || s.ReadsPerWake > MaxReadsPerWake {
		return fmt.Errorf("loadgen: api_reads_per_wake %g outside [0, %d]", s.ReadsPerWake, MaxReadsPerWake)
	}
	if s.Shards < 1 {
		return fmt.Errorf("loadgen: shards %d must be >= 1", s.Shards)
	}
	if s.Server.MaxInflight < 0 || s.Server.MaxSessions < 0 || s.Server.MaxArchiveRecords < 0 {
		return fmt.Errorf("loadgen: negative server bound")
	}
	if s.Server.ServiceS < 0 || s.Server.ServiceS > MaxSpecSeconds {
		return fmt.Errorf("loadgen: server.service_s %g outside [0, %g]", s.Server.ServiceS, float64(MaxSpecSeconds))
	}
	if s.Server.StallMS < 0 || s.Server.StallMS > 1e6 {
		return fmt.Errorf("loadgen: server.stall_ms %g outside [0, 1e6]", s.Server.StallMS)
	}
	wakes := s.WakesPerHive()
	if wakes == 0 {
		return fmt.Errorf("loadgen: horizon_s %g fits no wake-up at period %g", s.HorizonS, s.WakePeriodS)
	}
	if ev := float64(s.Hives) * float64(wakes) * (1 + s.ReadsPerWake); ev > MaxEvents {
		return fmt.Errorf("loadgen: %g scheduled events exceed the %d cap", ev, MaxEvents)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.Retry != nil {
		if err := s.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// WakesPerHive returns how many wake-ups the horizon fits per hive.
func (s LoadSpec) WakesPerHive() int {
	return int(math.Floor(s.HorizonS / s.WakePeriodS))
}

// RetryPolicy returns the effective client retry policy: the explicit
// override, else the fault plan's, else the default.
func (s LoadSpec) RetryPolicy() faults.RetryPolicy {
	if s.Retry != nil {
		return *s.Retry
	}
	if s.Faults != nil {
		return s.Faults.RetryOrDefault()
	}
	return faults.DefaultRetryPolicy()
}

// Injector arms the spec's fault plan at the campaign start (nil when
// the spec has no faults — the nil injector is a healthy fleet).
func (s LoadSpec) Injector(start time.Time) (*faults.Injector, error) {
	if s.Faults == nil {
		return nil, nil
	}
	return faults.NewInjector(*s.Faults, start)
}

// hiveID names hive i on the wire; zero-padded so sorted output is
// stable at any fleet size the bounds allow.
func hiveID(i int) string { return fmt.Sprintf("hive-%06d", i) }

// CampaignStart anchors every virtual timestamp the generator emits.
// A fixed instant (not wall clock) keeps schedules, frames and reports
// byte-identical across runs.
var CampaignStart = time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
