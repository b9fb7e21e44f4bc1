package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a public function of the program: its
// name (the layer it belongs to), its wall-clock window relative to the
// tracer's origin, the span it ran inside (-1 for none) and the op it
// belongs to (-1 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; they are written out once, when the
// run ends. A nil *tracer is the untraced run: every method is a no-op
// that still runs the wrapped call, so workloads share one code path.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	stack  []int
	counts []countRec
}

// countRec is one work count observed during an op (wake-ups simulated,
// support vectors, scheduled events, ...).
type countRec struct {
	Name  string  `json:"name"`
	Op    int     `json:"op"`
	Value float64 `json:"value"`
}

func newTracer() *tracer { return &tracer{origin: time.Now(), op: -1} }

// setOp stamps subsequent spans and counts with op ordinal i (-1 = set-up).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span called name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// count records a work count for the current op.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts = append(t.counts, countRec{Name: name, Op: t.op, Value: v})
	}
}

// perOp sums the durations of the spans called name per op, for every
// op in ops, in the given time unit. Ops with no such span count 0.
func (t *tracer) perOp(name string, ops []int, unit time.Duration) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += float64(s.End-s.Start) / float64(unit)
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// countsPerOp returns the count called name for every op in ops.
func (t *tracer) countsPerOp(name string, ops []int) []float64 {
	vals := map[int]float64{}
	for _, c := range t.counts {
		if c.Name == name {
			vals[c.Op] += c.Value
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = vals[op]
	}
	return out
}

// setupSpan returns the duration of the set-up span called name, in
// the given unit (0 when absent).
func (t *tracer) setupSpan(name string, unit time.Duration) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name && s.Op == -1 {
			sum += float64(s.End-s.Start) / float64(unit)
		}
	}
	return sum
}

// write dumps every span and count as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []span     `json:"spans"`
		Counts []countRec `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
