package ledger

// JSONL export/import: the ledger's structured event log. One JSON
// object per line, virtual-time keyed, with fixed field order, so two
// equal-seed runs export byte-identical files — the same acceptance
// bar as the obs tracer. Every line carries a "k" kind tag:
//
//	{"k":"hdr","v":1}                                  version header
//	{"k":"e","t":"...","hive":...,...}                 one entry
//	{"k":"store","hive":...,"store":...,...}           store delta
//	{"k":"trip","reason":...,"dropped":N}              flight-recorder dump header
//
// Readers must ignore unknown kinds, so the format can grow.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Version is the JSONL schema version written in the header line.
const Version = 1

// wireEntry is the JSON shape of one entry. Field order here fixes
// the byte layout (encoding/json marshals struct fields in declaration
// order).
type wireEntry struct {
	K         string  `json:"k"`
	T         string  `json:"t"`
	Hive      string  `json:"hive,omitempty"`
	Device    string  `json:"dev"`
	Component string  `json:"comp,omitempty"`
	Task      string  `json:"task"`
	Dir       string  `json:"dir"`
	Joules    float64 `json:"j"`
	Seconds   float64 `json:"s,omitempty"`
	Store     string  `json:"store,omitempty"`
}

type wireHeader struct {
	K string `json:"k"`
	V int    `json:"v"`
}

type wireStore struct {
	K        string  `json:"k"`
	Hive     string  `json:"hive,omitempty"`
	Store    string  `json:"store"`
	InitialJ float64 `json:"initial_j"`
	FinalJ   float64 `json:"final_j"`
}

type wireTrip struct {
	K       string `json:"k"`
	Reason  string `json:"reason"`
	Dropped uint64 `json:"dropped"`
}

// timeFormat keys entries by virtual time with enough resolution for
// sub-second simulation steps while staying byte-stable.
const timeFormat = time.RFC3339Nano

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

func writeEntries(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		we := wireEntry{
			K:         "e",
			T:         e.T.UTC().Format(timeFormat),
			Hive:      e.Hive,
			Device:    e.Device,
			Component: e.Component,
			Task:      e.Task,
			Dir:       e.Dir.String(),
			Joules:    e.Joules,
			Seconds:   e.Seconds,
			Store:     e.Store,
		}
		if err := writeLine(bw, we); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeTripHeader(w io.Writer, reason string, dropped uint64) error {
	return writeLine(w, wireTrip{K: "trip", Reason: reason, Dropped: dropped})
}

// WriteJSONL writes the retained entries and registered store deltas
// as a self-contained JSONL event log: header line, entries in append
// order, store lines sorted by (hive, store). A nil ledger writes only
// the header so the output is still a valid (empty) log.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if err := writeLine(w, wireHeader{K: "hdr", V: Version}); err != nil {
		return err
	}
	if l == nil {
		return nil
	}
	l.mu.Lock()
	entries := l.entriesLocked()
	stores := l.storesLocked()
	l.mu.Unlock()
	if err := writeEntries(w, entries); err != nil {
		return err
	}
	for _, d := range stores {
		ws := wireStore{K: "store", Hive: d.Hive, Store: d.Store,
			InitialJ: d.InitialJ, FinalJ: d.FinalJ}
		if err := writeLine(w, ws); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL event log back into a ledger (entries plus
// store deltas). Trip headers are tolerated — a flight-recorder dump
// is a readable ledger — and unknown kinds are skipped for forward
// compatibility. Malformed lines are errors: a truncated ledger should
// fail loudly, not silently lose joules.
func ReadJSONL(r io.Reader) (*Ledger, error) {
	l := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("ledger: line %d: %w", lineNo, err)
		}
		switch kind.K {
		case "e":
			var we wireEntry
			if err := json.Unmarshal(line, &we); err != nil {
				return nil, fmt.Errorf("ledger: line %d: %w", lineNo, err)
			}
			t, err := time.Parse(timeFormat, we.T)
			if err != nil {
				return nil, fmt.Errorf("ledger: line %d: %w", lineNo, err)
			}
			dir, err := parseDirection(we.Dir)
			if err != nil {
				return nil, fmt.Errorf("ledger: line %d: %w", lineNo, err)
			}
			l.Append(Entry{
				T: t, Hive: we.Hive, Device: we.Device, Component: we.Component,
				Task: we.Task, Dir: dir, Joules: we.Joules, Seconds: we.Seconds,
				Store: we.Store,
			})
		case "store":
			var ws wireStore
			if err := json.Unmarshal(line, &ws); err != nil {
				return nil, fmt.Errorf("ledger: line %d: %w", lineNo, err)
			}
			l.SetStore(ws.Hive, ws.Store, ws.InitialJ, ws.FinalJ)
		case "hdr", "trip":
			// Header and trip markers carry no flows.
		default:
			// Unknown kind: skip (forward compatibility).
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}
