package loadgen

import (
	"fmt"
	"io"
	"sort"
	"time"

	"beesim/internal/parallel"
	"beesim/internal/rng"
)

// EventKind tags a scheduled arrival.
type EventKind uint8

// Scheduled arrival kinds.
const (
	// EventUpload is one wake-up's sensor report + audio upload.
	EventUpload EventKind = iota + 1
	// EventRead is one dashboard/API read.
	EventRead
)

// String names the kind (schedule CSV column).
func (k EventKind) String() string {
	switch k {
	case EventUpload:
		return "upload"
	case EventRead:
		return "read"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled arrival: hive h's wake-up w offers work At
// after the campaign start. The schedule is open-loop — events fire at
// their offset regardless of how the servers are coping, which is what
// makes saturation measurable.
type Event struct {
	// At is the offset from CampaignStart.
	At time.Duration
	// Hive indexes the fleet [0, Hives).
	Hive int
	// Wake is the hive's wake-up ordinal this event belongs to.
	Wake int
	// Kind is upload or read.
	Kind EventKind
}

// Stream salts for schedule draws; distinct from any salt used by
// internal/faults so fault draws and schedule draws never correlate.
const (
	saltSchedule = 0x5c4ed01e0001
	saltPhase    = 1
	saltReads    = 2
)

// u01 maps a derived stream seed to a uniform in [0, 1) using the top
// 53 bits, same construction as rng.Source.Float64.
func u01(z uint64) float64 { return float64(z>>11) / (1 << 53) }

// hiveEvents derives hive h's complete event list, in time order. Pure
// function of (spec, h): no shared state, so any partition of hives
// across workers reproduces the same events.
func hiveEvents(spec LoadSpec, h int) []Event {
	base := rng.StreamSeed(spec.Seed, saltSchedule)
	hseed := rng.StreamSeed(base, uint64(h))
	period := spec.WakePeriodS
	phase := spec.PhaseSpread * period * u01(rng.StreamSeed(hseed, saltPhase))
	wakes := spec.WakesPerHive()
	out := make([]Event, 0, wakes)
	whole := int(spec.ReadsPerWake)
	frac := spec.ReadsPerWake - float64(whole)
	for w := 0; w < wakes; w++ {
		at := phase + float64(w)*period
		if at >= spec.HorizonS {
			break
		}
		out = append(out, Event{At: seconds(at), Hive: h, Wake: w, Kind: EventUpload})
		// Dashboard reads ride each wake-up: `whole` guaranteed reads
		// plus a Bernoulli(frac) extra, each spread uniformly across the
		// rest of the period — beekeepers refresh dashboards after data
		// lands, not in lockstep with it.
		wseed := rng.StreamSeed(hseed, saltReads+uint64(w)<<8)
		reads := whole
		if frac > 0 && u01(rng.StreamSeed(wseed, 1)) < frac {
			reads++
		}
		for r := 0; r < reads; r++ {
			off := period * u01(rng.StreamSeed(wseed, 2+uint64(r)))
			rat := at + off
			if rat >= spec.HorizonS {
				continue
			}
			out = append(out, Event{At: seconds(rat), Hive: h, Wake: w, Kind: EventRead})
		}
	}
	sortEvents(out)
	return out
}

// seconds converts a float offset to a Duration. Float64 → int64
// truncation is deterministic across platforms.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// sortEvents orders events by (At, Hive, Wake, Kind) — a total order,
// so ties between hives resolve identically everywhere.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Hive != b.Hive {
			return a.Hive < b.Hive
		}
		if a.Wake != b.Wake {
			return a.Wake < b.Wake
		}
		return a.Kind < b.Kind
	})
}

// Schedule derives the whole fleet's arrival schedule serially.
func Schedule(spec LoadSpec) []Event {
	evs, _ := ScheduleParallel(spec, 1) // serial path cannot fail
	return evs
}

// ScheduleParallel derives the fleet schedule with the given worker
// count (0 = GOMAXPROCS-bounded). Per-hive derivation is pure and the
// merge is index-ordered + totally sorted, so the result is
// byte-identical to Schedule at any concurrency.
func ScheduleParallel(spec LoadSpec, workers int) ([]Event, error) {
	perHive, err := parallel.Map(workers, spec.Hives, func(h int) ([]Event, error) {
		return hiveEvents(spec, h), nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, evs := range perHive {
		n += len(evs)
	}
	all := make([]Event, 0, n)
	for _, evs := range perHive {
		all = append(all, evs...)
	}
	sortEvents(all)
	return all, nil
}

// groupByHive regroups a sorted schedule into per-hive slices (index =
// hive), each in time order — the shape the socket runner replays.
func groupByHive(spec LoadSpec, evs []Event) [][]Event {
	out := make([][]Event, spec.Hives)
	for _, ev := range evs {
		out[ev.Hive] = append(out[ev.Hive], ev)
	}
	return out
}

// WriteCSV emits the schedule as CSV (at_s, hive, wake, kind), the
// byte-comparable artifact the determinism suite diffs across worker
// counts.
func WriteCSV(w io.Writer, evs []Event) error {
	if _, err := fmt.Fprintln(w, "at_s,hive,wake,kind"); err != nil {
		return err
	}
	for _, ev := range evs {
		if _, err := fmt.Fprintf(w, "%.9f,%d,%d,%s\n",
			ev.At.Seconds(), ev.Hive, ev.Wake, ev.Kind); err != nil {
			return err
		}
	}
	return nil
}
