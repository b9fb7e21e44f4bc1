package loadgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"beesim/internal/rng"
	"beesim/internal/slo"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// benchFleetSpec is the 600-hive fleet the end-to-end plan benchmark
// generates for a round seed: the seed draws the link drop rate and
// the outage window.
func benchFleetSpec(t *testing.T, seed uint64) LoadSpec {
	t.Helper()
	r := rng.New(seed)
	drop := r.Range(0.02, 0.08)
	outage := float64(300 * (1 + r.Intn(3600/300-2)))
	spec, err := ParseSpec([]byte(fmt.Sprintf(`{
  "name": "bench-fleet", "seed": %d, "hives": 600,
  "wake_period_s": 300, "horizon_s": 3600, "clip_s": 0.25,
  "phase_spread": 1, "api_reads_per_wake": 0.25, "shards": 2,
  "server": {"max_inflight": 4},
  "faults": {
    "link": {"drop_prob": %.6f, "outages": [{"start_s": %g, "duration_s": 90}]},
    "retry": {"max_attempts": 4, "base_s": 2, "max_s": 30, "multiplier": 2,
              "jitter_frac": 0.2, "attempt_timeout_s": 5}
  }
}`, seed, drop, outage)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func loadSLO(t *testing.T) slo.Spec {
	t.Helper()
	data, err := os.ReadFile("../../examples/slo_upload.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := slo.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// planDigest hashes a plan's text report followed by its knee CSV.
func planDigest(t *testing.T, spec LoadSpec, sloSpec slo.Spec, workers int) string {
	t.Helper()
	rep, err := Plan(spec, Schedule(spec), sloSpec, PlanOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteKneeCSV(&b); err != nil {
		t.Fatal(err)
	}
	return sha(b.Bytes())
}

// simDigests hashes one Simulate result: its registry snapshot as
// JSON, and its ledger entries with every float by its bits.
func simDigests(t *testing.T, spec LoadSpec, evs []Event, opt SimOptions) (snap, entries string) {
	t.Helper()
	res, err := Simulate(spec, evs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sb, eb bytes.Buffer
	if err := res.Registry.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "%d %d %d %d %d %d %d %x %x\n", res.Offered, res.Delivered, res.Rejected,
		res.DroppedLink, res.Lost, res.Reads, res.ArchiveShed,
		math.Float64bits(res.EdgeJ), math.Float64bits(res.ServerJ))
	for _, e := range res.Entries {
		fmt.Fprintf(&eb, "%d %s %s %s %s %d %x %x\n", e.T.UnixNano(), e.Hive, e.Device,
			e.Component, e.Task, e.Dir, math.Float64bits(e.Joules), math.Float64bits(e.Seconds))
	}
	return sha(sb.Bytes()), sha(eb.Bytes())
}

// TestPlanBitsPinned pins the bytes of schedules, capacity plans and
// simulator probes. The worker-count suites only compare runs with
// each other, so a change that moves every run the same way passes
// them; this test fails on any changed schedule row, report line, knee
// row, metric or ledger entry. Every plan and probe must hash the same
// at one worker and at eight.
func TestPlanBitsPinned(t *testing.T) {
	sloSpec := loadSLO(t)
	small, err := LoadFile("../../examples/fleet_small.json")
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name        string
		spec        LoadSpec
		sched, plan string
	}{
		{"fleet_small", small,
			"73801cbf8857bdcac0923ad0ffcad5321b6eca879d212a6878463abaff51d099",
			"dea9dac6ac160d6c856418cb5b3a98cc858e5debdc946624ca70cfae47cc0b8e"},
		{"bench seed 1", benchFleetSpec(t, 1),
			"496b1260ab26fc3cebbcb3522aaf8c188bbd7e7c42ec9b39dcaa6b96b8120f1b",
			"54bbd27f2f04e2d3ddf17ad43445f4f1a2949edd595813a9c0d8baa28e9c8096"},
		{"bench seed 2", benchFleetSpec(t, 2),
			"b8ca4693d91cf2ba54dccf3ebb50df6a608cdc0246d1b5cd81f1b74e64cfd2b9",
			"2386d697c95bce80d234b0c36dbfa0f1d56030377027be25d670c26cb1b3879b"},
		{"bench seed 3", benchFleetSpec(t, 3),
			"9d3faea5ec030a9d22e5df692e5c76b2b2c72d2959d4210d5f7fb217b159cb9e",
			"412afa840b847e82489334c3c8c5055b13798e063b7fbba37518f9a496df4b0b"},
		{"bench seed 4", benchFleetSpec(t, 4),
			"021109840528281062af72b486b127ecc167fbd05fc38eac0e9bd319a0ffc12f",
			"552a24981e895963cda9fc901ad1085dbe2a3c93513c83f60c7992db7764182d"},
	}
	for _, p := range plans {
		var b bytes.Buffer
		if err := WriteCSV(&b, Schedule(p.spec)); err != nil {
			t.Fatal(err)
		}
		if got := sha(b.Bytes()); got != p.sched {
			t.Errorf("%s: schedule CSV sha256 %s, pinned %s", p.name, got, p.sched)
		}
		for _, workers := range []int{1, 8} {
			if got := planDigest(t, p.spec, sloSpec, workers); got != p.plan {
				t.Errorf("%s, %d workers: plan sha256 %s, pinned %s", p.name, workers, got, p.plan)
			}
		}
	}

	// Probes with ledger entries and link faults, below and above the
	// scheduled rate.
	sims := []struct {
		name          string
		spec          LoadSpec
		opt           SimOptions
		snap, entries string
	}{
		{"fleet_small x0.75", small, SimOptions{Servers: 2, RateScale: 0.75, NeedEntries: true},
			"0bebb13fb3695a56b4d60e5009fe5a38e607261f2dbd2a99c5111b2dd0458c66",
			"f3d24768c865f4e6a28e70283809e76ca1c25a6031e83571ae58a6ce4e37cb26"},
		{"fleet_small x3", small, SimOptions{Servers: 1, RateScale: 3, NeedEntries: true},
			"95ef9d2ec850b8de710acb6034f478ddb690a272fa62d14a314d1002762e5084",
			"bfc9acd927d4a3401c74b1450c407e99993490d6f71ccaaa1951b30f7f9a7820"},
		{"bench seed 1 x0.75", benchFleetSpec(t, 1), SimOptions{Servers: 4, RateScale: 0.75, NeedEntries: true},
			"a4c5a041a6f671beb37839fe67e93c258bedae5a41071a7fbc6924c083e60481",
			"a2111029572eda03263411762bc51260b3e486735b467a61342e4de4a8cd545c"},
		{"bench seed 1 x3", benchFleetSpec(t, 1), SimOptions{Servers: 4, RateScale: 3, NeedEntries: true},
			"5ce6737b47c08bdc60f089394087a9e9cf149e9990ab04d0d5760244b500e282",
			"b627bb6ab24210ef17f3cf007b6c5d61c65471816078d8aad2e5f80ba48dae9e"},
	}
	for _, s := range sims {
		for _, workers := range []int{1, 8} {
			s.opt.Workers = workers
			snap, entries := simDigests(t, s.spec, Schedule(s.spec), s.opt)
			if snap != s.snap {
				t.Errorf("%s, %d workers: snapshot sha256 %s, pinned %s", s.name, workers, snap, s.snap)
			}
			if entries != s.entries {
				t.Errorf("%s, %d workers: entries sha256 %s, pinned %s", s.name, workers, entries, s.entries)
			}
		}
	}
}

// TestSimulateScaledTiesKeepOrder compresses instants 1 ns apart at
// rate scale 3, so each group of three arrivals lands on one scaled
// instant in descending hive order. The probe must match the same
// arrivals scheduled pre-scaled at scale 1, where the schedule's own
// sort breaks each tie by hive.
func TestSimulateScaledTiesKeepOrder(t *testing.T) {
	spec, err := LoadFile("../../examples/fleet_small.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Server.MaxInflight = 1
	const hives = 12
	var evs, prescaled []Event
	for i := 0; i < hives; i++ {
		h := hives - 1 - i
		at := time.Second + time.Duration(i)
		evs = append(evs, Event{At: at, Hive: h, Kind: EventUpload})
		prescaled = append(prescaled, Event{At: time.Duration(float64(at) / 3), Hive: h, Kind: EventUpload})
	}
	sortEvents(prescaled)
	if prescaled[0].Hive == evs[0].Hive {
		t.Fatal("fixture has no scaled tie to break")
	}
	opt := SimOptions{Servers: 1, NeedEntries: true}
	wantSnap, wantEntries := simDigests(t, spec, prescaled, opt)
	opt.RateScale = 3
	gotSnap, gotEntries := simDigests(t, spec, evs, opt)
	if gotSnap != wantSnap || gotEntries != wantEntries {
		t.Fatalf("scaled ties: snapshot %s entries %s, pre-scaled %s %s", gotSnap, gotEntries, wantSnap, wantEntries)
	}
}
