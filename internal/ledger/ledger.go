// Package ledger is beesim's energy ledger: an append-only record of
// every energy flow in a simulation as a typed entry — (virtual time,
// hive, device, component, task, direction, joules) — with a
// conservation auditor on top.
//
// The paper's core claims (Figures 2-3 and 6-9, Tables I and II) are
// energy decompositions: which joules went to sleep, the routine, queen
// detection, the transfer, cloud idle. The metrics registry of
// internal/obs exposes aggregates; the ledger keeps the provenance, so
// a miscounted joule is attributable to a hive and component instead of
// only being visible when a figure looks wrong.
//
// Like internal/obs, the package is stdlib-only and costs nothing when
// unused: every method on a nil *Ledger is a no-op, so instrumented
// packages hold a ledger pointer unconditionally and skip all call-site
// branching in the disabled case.
//
// Determinism: entries are keyed by the virtual simulation clock and
// recorded in append order, so two runs with the same seed produce
// byte-identical JSONL exports (see WriteJSONL) — the same property the
// obs tracer guarantees for Chrome traces.
package ledger

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Direction classifies an energy flow relative to the hive's energy
// store.
type Direction uint8

// The three flow directions.
const (
	// Harvest is energy entering a store (solar joules banked in the
	// battery, after conversion efficiency).
	Harvest Direction = iota
	// Consume is energy leaving a store into a device or task.
	Consume
	// StoreLoss is energy lost inside a store's conversion chain
	// (charge/discharge inefficiency).
	StoreLoss
)

// String returns the direction's wire name.
func (d Direction) String() string {
	switch d {
	case Harvest:
		return "harvest"
	case Consume:
		return "consume"
	case StoreLoss:
		return "store-loss"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// parseDirection inverts String.
func parseDirection(s string) (Direction, error) {
	switch s {
	case "harvest":
		return Harvest, nil
	case "consume":
		return Consume, nil
	case "store-loss":
		return StoreLoss, nil
	default:
		return 0, fmt.Errorf("ledger: unknown direction %q", s)
	}
}

// Entry is one recorded energy flow.
type Entry struct {
	// T is the virtual simulation time of the flow.
	T time.Time
	// Hive identifies the smart beehive ("" for fleet-level flows).
	Hive string
	// Device is the physical unit: "edge" (Pi 3B+), "monitor" (Pi
	// Zero), "panel", "battery", "cloud", "fleet".
	Device string
	// Component is the part within the device: "pi3b", "pi-zero",
	// "pv", "pack", "radio", "server", "service".
	Component string
	// Task is the duty-cycle step or service the joules paid for,
	// using the paper's table row names where one exists ("Sleep",
	// "Send audio", "Queen detection model (CNN)", ...).
	Task string
	// Dir is the flow direction.
	Dir Direction
	// Joules is the flow magnitude (always >= 0; the direction carries
	// the sign).
	Joules float64
	// Seconds is the task duration when the flow covers a time span
	// (0 for instantaneous accounting entries).
	Seconds float64
	// Store names the energy store this flow moves through ("battery"
	// for flows the conservation auditor balances). Entries with an
	// empty Store are attribution overlays — e.g. the radio's share of
	// a routine already counted at the device level, or grid-powered
	// cloud energy — and are excluded from conservation checks.
	Store string
}

// StoreDelta records a store's energy level at the start and end of a
// run, letting the auditor balance flows against the observed change.
type StoreDelta struct {
	Hive     string
	Store    string
	InitialJ float64
	FinalJ   float64
}

// DeltaJ returns the net change of stored energy over the run.
func (d StoreDelta) DeltaJ() float64 { return d.FinalJ - d.InitialJ }

// Ledger accumulates entries. Construct with New (unbounded) or
// NewRing (flight-recorder mode keeping only the last n entries). A
// nil *Ledger ignores all operations, so instrumented code can hold
// one unconditionally.
type Ledger struct {
	mu      sync.Mutex
	cap     int // 0 = unbounded
	entries []Entry
	head    int    // ring start index once full
	total   uint64 // lifetime appends (>= retained count in ring mode)
	stores  map[string]StoreDelta

	// Flight recorder: Trip dumps the retained entries to dumpW.
	dumpW io.Writer
	trips int
}

// New creates an unbounded ledger.
func New() *Ledger { return &Ledger{stores: map[string]StoreDelta{}} }

// NewRing creates a flight-recorder ledger retaining only the last n
// entries (n must be positive). Aggregations and audits then see only
// the retained window; use an unbounded ledger for full-run audits.
func NewRing(n int) (*Ledger, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ledger: non-positive ring size %d", n)
	}
	return &Ledger{cap: n, stores: map[string]StoreDelta{}}, nil
}

// Append records one entry. Negative or NaN joules are recorded as-is;
// the auditor, not the hot path, judges them. A nil ledger is a no-op.
func (l *Ledger) Append(e Entry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.total++
	if l.cap > 0 && len(l.entries) == l.cap {
		l.entries[l.head] = e
		l.head = (l.head + 1) % l.cap
	} else {
		l.entries = append(l.entries, e)
	}
	l.mu.Unlock()
}

// Len returns the number of retained entries (0 for a nil ledger).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Total returns the lifetime append count, including entries a ring
// has already overwritten.
func (l *Ledger) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns a copy of the retained entries in append order.
func (l *Ledger) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entriesLocked()
}

func (l *Ledger) entriesLocked() []Entry {
	out := make([]Entry, 0, len(l.entries))
	out = append(out, l.entries[l.head:]...)
	out = append(out, l.entries[:l.head]...)
	return out
}

// SetStore registers (or updates) a store's start/end energy levels
// for the conservation audit. A nil ledger is a no-op.
func (l *Ledger) SetStore(hive, store string, initialJ, finalJ float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stores[hive+"\x00"+store] = StoreDelta{
		Hive: hive, Store: store, InitialJ: initialJ, FinalJ: finalJ,
	}
	l.mu.Unlock()
}

// Stores returns the registered store deltas sorted by (hive, store).
func (l *Ledger) Stores() []StoreDelta {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.storesLocked()
}

func (l *Ledger) storesLocked() []StoreDelta {
	out := make([]StoreDelta, 0, len(l.stores))
	for _, d := range l.stores {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hive != out[j].Hive {
			return out[i].Hive < out[j].Hive
		}
		return out[i].Store < out[j].Store
	})
	return out
}

// AutoDump arms the flight recorder: each Trip writes the retained
// entries to w as JSONL behind a trip-header line. Pass nil to disarm.
func (l *Ledger) AutoDump(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.dumpW = w
	l.mu.Unlock()
}

// Trips returns how many times the flight recorder fired.
func (l *Ledger) Trips() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trips
}

// Trip fires the flight recorder: when AutoDump armed a writer, the
// retained entries (the last N events in ring mode) are dumped as
// JSONL after a header line recording the reason and how many earlier
// entries the ring already dropped. Probes call this on auditor
// violations and battery cutoffs. Dump errors are returned but leave
// the ledger usable. A nil or disarmed ledger only counts the trip.
func (l *Ledger) Trip(reason string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trips++
	if l.dumpW == nil {
		return nil
	}
	dropped := l.total - uint64(len(l.entries))
	if err := writeTripHeader(l.dumpW, reason, dropped); err != nil {
		return err
	}
	return writeEntries(l.dumpW, l.entriesLocked())
}
