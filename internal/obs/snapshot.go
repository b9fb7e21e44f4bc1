package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"text/tabwriter"
)

// StandardQuantiles are the percentiles exported with every histogram
// snapshot: p50, p90, p99 and p99.9.
var StandardQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// MetricSnap is one counter or gauge value at snapshot time.
type MetricSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnap is one populated histogram bucket: the count of
// observations below the upper bound (buckets are half-open on the
// shared log-linear grid). LE renders the bound so the snapshot
// survives JSON; UpperBound carries the same value in-process.
type BucketSnap struct {
	UpperBound float64 `json:"-"`
	LE         string  `json:"le"`
	Count      uint64  `json:"count"`
}

// bound returns the numeric upper bound, recovering it from LE after a
// JSON round trip (grid bounds are always positive, so a zero
// UpperBound means "parse LE").
func (b BucketSnap) bound() float64 {
	if b.UpperBound != 0 {
		return b.UpperBound
	}
	if b.LE == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(b.LE, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// QuantileSnap is one exported percentile.
type QuantileSnap struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// ExemplarSnap is one exported histogram exemplar: a concrete traced
// observation from the bucket labeled LE, linking the quantile ladder
// back to a specific trace ID.
type ExemplarSnap struct {
	LE      string  `json:"le"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// HistogramSnap is one histogram at snapshot time. Only populated grid
// buckets are exported (the grid has thousands of mostly-empty
// buckets); conservation still holds over the export:
//
//	Count == Low + sum(Buckets[i].Count) + High
//
// Min and Max are 0 when Count is 0.
type HistogramSnap struct {
	Name      string         `json:"name"`
	Count     uint64         `json:"count"`
	Sum       float64        `json:"sum"`
	Min       float64        `json:"min"`
	Max       float64        `json:"max"`
	Low       uint64         `json:"low,omitempty"`
	High      uint64         `json:"high,omitempty"`
	Dropped   uint64         `json:"dropped,omitempty"`
	Quantiles []QuantileSnap `json:"quantiles,omitempty"`
	Buckets   []BucketSnap   `json:"buckets"`
	// Exemplars carries the bucket reservoirs' (value, trace ID)
	// pairs; empty (and omitted from JSON) unless the histogram saw
	// traced observations via ObserveExemplar.
	Exemplars []ExemplarSnap `json:"exemplars,omitempty"`
}

// Quantile computes the q-quantile (0 < q <= 1) from the exported
// buckets by exact-count rank, exactly as Histogram.Quantile does live.
// It works on snapshots loaded back from JSON too. The second return is
// false when the snapshot is empty or q is out of range.
func (h HistogramSnap) Quantile(q float64) (float64, bool) {
	if h.Count == 0 || !(q > 0 && q <= 1) {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	cum := h.Low
	if rank <= cum {
		return h.Min, true
	}
	for _, b := range h.Buckets {
		cum += b.Count
		if rank <= cum {
			return clampTo(b.bound(), h.Min, h.Max), true
		}
	}
	return h.Max, true
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name
// so exports are deterministic and diffable.
type Snapshot struct {
	Counters   []MetricSnap    `json:"counters"`
	Gauges     []MetricSnap    `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, MetricSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, snapHistogram(name, h))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

func snapHistogram(name string, h *Histogram) HistogramSnap {
	hs := HistogramSnap{
		Name:    name,
		Count:   h.Count(),
		Sum:     h.Sum(),
		Low:     h.Low(),
		High:    h.High(),
		Dropped: h.Dropped(),
	}
	if hs.Count > 0 {
		hs.Min = h.Min()
		hs.Max = h.Max()
	}
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		bound := bucketBound(i)
		hs.Buckets = append(hs.Buckets, BucketSnap{
			UpperBound: bound,
			LE:         formatBound(bound),
			Count:      c,
		})
	}
	if hs.Count > 0 {
		for _, q := range StandardQuantiles {
			v, _ := hs.Quantile(q)
			hs.Quantiles = append(hs.Quantiles, QuantileSnap{Q: q, V: v})
		}
	}
	hs.Exemplars = h.Exemplars()
	return hs
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// FindCounter returns the named counter's value.
func (s Snapshot) FindCounter(name string) (float64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// FindHistogram returns the named histogram snapshot.
func (s Snapshot) FindHistogram(name string) (HistogramSnap, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i], true
	}
	return HistogramSnap{}, false
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// WriteJSON writes the snapshot as one JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSnapshot reads a snapshot back from its WriteJSON form, so
// reports and SLO evaluation can run offline on an exported file.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parse snapshot: %w", err)
	}
	return s, nil
}

// WriteText writes an aligned human-readable snapshot: one line per
// counter and gauge, histograms with min/max/percentiles and their
// populated bucket ladders.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(tw, "counter\t%s\t%s\n", c.Name, formatValue(c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(tw, "gauge\t%s\t%s\n", g.Name, formatValue(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(tw, "histogram\t%s\tcount=%d sum=%s min=%s max=%s\n",
			h.Name, h.Count, formatValue(h.Sum), formatValue(h.Min), formatValue(h.Max)); err != nil {
			return err
		}
		for _, q := range h.Quantiles {
			if _, err := fmt.Fprintf(tw, "\t  q=%s\t%s\n",
				formatValue(q.Q), formatValue(q.V)); err != nil {
				return err
			}
		}
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			if _, err := fmt.Fprintf(tw, "\t  le=%s\t%d\n", b.LE, b.Count); err != nil {
				return err
			}
		}
		if h.Low > 0 {
			if _, err := fmt.Fprintf(tw, "\t  low(<=0)\t%d\n", h.Low); err != nil {
				return err
			}
		}
		if h.High > 0 {
			if _, err := fmt.Fprintf(tw, "\t  high(overflow)\t%d\n", h.High); err != nil {
				return err
			}
		}
		if h.Dropped > 0 {
			if _, err := fmt.Fprintf(tw, "\t  dropped(non-finite)\t%d\n", h.Dropped); err != nil {
				return err
			}
		}
		for _, e := range h.Exemplars {
			if _, err := fmt.Fprintf(tw, "\t  exemplar le=%s v=%s\ttrace=%s\n",
				e.LE, formatValue(e.Value), e.TraceID); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
