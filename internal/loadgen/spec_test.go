package loadgen

import (
	"strings"
	"testing"
	"time"
)

// validSpecJSON is a minimal well-formed spec the rejection tests
// mutate away from.
const validSpecJSON = `{
  "name": "t", "seed": 1, "hives": 4, "wake_period_s": 300,
  "horizon_s": 900, "clip_s": 0.25, "phase_spread": 1, "shards": 1,
  "server": {"max_inflight": 2}
}`

func TestParseSpecAcceptsValid(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hives != 4 || s.WakesPerHive() != 3 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"t","seed":1,"hives":1,"wake_period_s":300,"horizon_s":900,"clip_s":0.25,"phase_spread":1,"shards":1,"server":{},"bogus":1}`,
		"trailing data":     validSpecJSON + `{"again":true}`,
		"NaN cadence":       strings.Replace(validSpecJSON, `"wake_period_s": 300`, `"wake_period_s": NaN`, 1),
		"negative cadence":  strings.Replace(validSpecJSON, `"wake_period_s": 300`, `"wake_period_s": -300`, 1),
		"zero hives":        strings.Replace(validSpecJSON, `"hives": 4`, `"hives": 0`, 1),
		"giant fleet":       strings.Replace(validSpecJSON, `"hives": 4`, `"hives": 100000000`, 1),
		"tiny clip":         strings.Replace(validSpecJSON, `"clip_s": 0.25`, `"clip_s": 0.01`, 1),
		"spread over 1":     strings.Replace(validSpecJSON, `"phase_spread": 1`, `"phase_spread": 1.5`, 1),
		"zero shards":       strings.Replace(validSpecJSON, `"shards": 1`, `"shards": 0`, 1),
		"negative budget":   strings.Replace(validSpecJSON, `{"max_inflight": 2}`, `{"max_inflight": -1}`, 1),
		"no wake in window": strings.Replace(validSpecJSON, `"horizon_s": 900`, `"horizon_s": 100`, 1),
		"missing name":      strings.Replace(validSpecJSON, `"name": "t", `, ``, 1),
		"bad retry":         strings.Replace(validSpecJSON, `"shards": 1,`, `"shards": 1, "retry": {"max_attempts": 0, "base_s": 1, "max_s": 2, "multiplier": 2, "jitter_frac": 0, "attempt_timeout_s": 1},`, 1),
	}
	for name, in := range cases {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExampleFleetSpecParses(t *testing.T) {
	s, err := LoadFile("../../examples/fleet_small.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Hives != 200 || s.Shards != 2 {
		t.Fatalf("examples/fleet_small.json changed shape: %+v", s)
	}
	if s.Faults == nil {
		t.Fatal("examples/fleet_small.json lost its fault plan")
	}
}

func TestScheduleShape(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	evs := Schedule(s)
	uploads := 0
	for i, ev := range evs {
		if i > 0 && evs[i-1].At > ev.At {
			t.Fatalf("schedule out of order at %d", i)
		}
		if ev.At < 0 || ev.At >= seconds(s.HorizonS) {
			t.Fatalf("event %d outside horizon: %v", i, ev.At)
		}
		if ev.Kind == EventUpload {
			uploads++
		}
	}
	if want := s.Hives * s.WakesPerHive(); uploads != want {
		t.Fatalf("uploads = %d, want %d", uploads, want)
	}
}

func TestScheduleSeedSensitivity(t *testing.T) {
	s, _ := ParseSpec([]byte(validSpecJSON))
	a := Schedule(s)
	s.Seed++
	b := Schedule(s)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed change left the schedule untouched")
	}
}

func TestHiveIDStable(t *testing.T) {
	if got := hiveID(7); got != "hive-000007" {
		t.Fatalf("hiveID(7) = %q", got)
	}
}

func TestCampaignStartFixed(t *testing.T) {
	want := time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
	if !CampaignStart.Equal(want) {
		t.Fatalf("CampaignStart moved to %v; schedules are keyed to it", CampaignStart)
	}
}
