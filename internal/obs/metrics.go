// Package obs is beesim's observability layer: a metrics registry
// (counters, gauges, mergeable log-linear histograms) and a
// discrete-event tracer that together make the paper's accounting —
// joules per task, seconds per routine, losses per allocation round —
// visible *inside* a run instead of only as end-of-run summaries.
//
// The package is stdlib-only and designed to cost nothing when unused:
// every instrument is nil-safe (methods on a nil *Counter, *Gauge,
// *Histogram or *Tracer are no-ops), so instrumented packages hold the
// probes unconditionally and skip all branching in the disabled case.
// The enabled hot path is lock-free (atomics); only registration and
// snapshotting take a lock.
//
// Determinism matters here: snapshots are sorted by name, histogram
// buckets are a fixed function of the value (no per-histogram bucket
// configuration to drift), and the tracer is keyed by virtual
// simulation time, so two runs with the same seed produce
// byte-identical exports — which is what makes energy-model regressions
// diffable in CI.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 metric. Increments are
// atomic; a nil counter ignores all operations.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v. Negative or NaN deltas are ignored to
// keep counters monotone.
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 metric that can move both ways. A nil gauge
// ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Log-linear (HDR-style) histogram layout. Every histogram shares one
// fixed bucket grid: each power-of-two tier [2^t, 2^(t+1)) is split
// into histSub equal-width sub-buckets, giving a worst-case relative
// error of 1/histSub (~3.1%) on any reported bound or quantile. The
// grid being a pure function of the value — not of construction-time
// configuration — is what makes histograms from different workers,
// shards or processes mergeable bucket-for-bucket.
const (
	histSubBits = 5
	// histSub is the number of linear sub-buckets per power-of-two tier.
	histSub = 1 << histSubBits
	// histTierMin..histTierMax is the covered magnitude range: tier t
	// holds values in [2^t, 2^(t+1)). 2^-30 ≈ 0.93 ns in seconds-space;
	// 2^40 ≈ 1.1e12 covers joule totals for multi-year fleet runs.
	histTierMin = -30
	histTierMax = 39
	histTiers   = histTierMax - histTierMin + 1
	histBuckets = histTiers * histSub
)

// bucketIndex maps a finite v > 0 onto the grid, clamping magnitudes
// below the first tier into bucket 0. It reports ok=false for values at
// or above 2^(histTierMax+1), which belong in the high overflow bucket.
// The sub-bucket arithmetic is exact: f-0.5 is exact by Sterbenz's
// lemma and the scale factor is a power of two, so equal values land in
// equal buckets on every platform.
func bucketIndex(v float64) (int, bool) {
	f, exp := math.Frexp(v) // v = f * 2^exp, f in [0.5, 1)
	tier := exp - 1
	if tier > histTierMax {
		return 0, false
	}
	if tier < histTierMin {
		return 0, true
	}
	sub := int((f - 0.5) * (2 * histSub))
	return (tier-histTierMin)*histSub + sub, true
}

// bucketBound returns the exclusive upper bound of grid bucket i: the
// bucket holds observations in [lower, bound).
func bucketBound(i int) float64 {
	tier := histTierMin + i/histSub
	sub := i % histSub
	return math.Ldexp(0.5+float64(sub+1)/(2*histSub), tier+1)
}

// orderedBits maps float bits onto uint64 so that the integer order
// matches the float order — the standard trick that lets min/max be
// maintained with plain integer compare-and-swap.
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// floatFromOrdered inverts orderedBits.
func floatFromOrdered(b uint64) float64 {
	if b&(1<<63) != 0 {
		return math.Float64frombits(b &^ (1 << 63))
	}
	return math.Float64frombits(^b)
}

func atomicOrderMin(a *atomic.Uint64, ord uint64) {
	for {
		old := a.Load()
		if ord >= old {
			return
		}
		if a.CompareAndSwap(old, ord) {
			return
		}
	}
}

func atomicOrderMax(a *atomic.Uint64, ord uint64) {
	for {
		old := a.Load()
		if ord <= old {
			return
		}
		if a.CompareAndSwap(old, ord) {
			return
		}
	}
}

func atomicAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Histogram counts observations on the shared log-linear grid and
// tracks exact count, sum, min and max. Observations are conserved:
//
//	Count() == Low() + sum(buckets) + High()
//
// Finite values <= 0 land in the dedicated low bucket, finite values at
// or above the grid's top in the dedicated high bucket — both still
// count toward Count, Sum, Min and Max, so quantile rank accounting
// never loses samples. Only non-finite observations (NaN, ±Inf) are
// rejected, and those are counted in Dropped. A nil histogram ignores
// all operations.
//
// Obtain histograms from a Registry; the zero value has unusable
// min/max sentinels.
type Histogram struct {
	counts  [histBuckets]atomic.Uint64
	low     atomic.Uint64 // finite observations <= 0
	high    atomic.Uint64 // finite observations >= 2^(histTierMax+1)
	sum     atomic.Uint64 // float64 bits
	count   atomic.Uint64 // low + grid + high
	dropped atomic.Uint64 // non-finite observations
	minOrd  atomic.Uint64 // orderedBits; valid iff count > 0
	maxOrd  atomic.Uint64

	// Exemplar reservoirs, keyed by bucket (see exemplar.go). Lazily
	// allocated under exMu on the first traced observation, so
	// untraced histograms never touch the lock or the map.
	exMu sync.Mutex
	ex   map[int][]Exemplar
}

// newHistogram returns a histogram with min/max sentinels armed.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.minOrd.Store(^uint64(0))
	h.maxOrd.Store(0)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records the sample v n times. The sum gains v*n in one
// addition, which matches n Observe calls bit for bit whenever every
// partial sum is exact, as it is for small integer v.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped.Add(n)
		return
	}
	if v <= 0 {
		h.low.Add(n)
	} else if i, ok := bucketIndex(v); ok {
		h.counts[i].Add(n)
	} else {
		h.high.Add(n)
	}
	h.count.Add(n)
	atomicAddFloat(&h.sum, v*float64(n))
	ord := orderedBits(v)
	atomicOrderMin(&h.minOrd, ord)
	atomicOrderMax(&h.maxOrd, ord)
}

// Count returns the number of accepted observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of accepted observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Dropped returns the number of non-finite observations rejected.
func (h *Histogram) Dropped() uint64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Low returns the count of finite observations <= 0.
func (h *Histogram) Low() uint64 {
	if h == nil {
		return 0
	}
	return h.low.Load()
}

// High returns the count of finite observations at or above the grid's
// upper edge.
func (h *Histogram) High() uint64 {
	if h == nil {
		return 0
	}
	return h.high.Load()
}

// Min returns the smallest accepted observation (NaN when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	return floatFromOrdered(h.minOrd.Load())
}

// Max returns the largest accepted observation (NaN when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	return floatFromOrdered(h.maxOrd.Load())
}

// Quantile returns the q-quantile (0 < q <= 1) by exact-count rank over
// the bucket grid: the element of rank ceil(q*Count) is located and its
// bucket's upper bound reported, clamped into [Min, Max] so the
// estimate never leaves the observed range. Samples in the low bucket
// rank below the grid and report Min; samples in the high bucket rank
// above it and report Max. Returns NaN when the histogram is empty or q
// is out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || !(q > 0 && q <= 1) {
		return math.NaN()
	}
	min, max := h.Min(), h.Max()
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	cum := h.low.Load()
	if rank <= cum {
		return min
	}
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if rank <= cum {
			return clampTo(bucketBound(i), min, max)
		}
	}
	return max
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Merge folds src's observations into h bucket-for-bucket: counts, sum,
// min/max, and the low/high/dropped accounting all accumulate. Both
// histograms share the fixed grid, so the merge is exact — merging
// per-worker shards in index order yields the same counts as observing
// every sample on one histogram. A nil receiver or source is a no-op.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.counts {
		if c := src.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.low.Add(src.low.Load())
	h.high.Add(src.high.Load())
	h.dropped.Add(src.dropped.Load())
	if n := src.count.Load(); n > 0 {
		h.count.Add(n)
		atomicAddFloat(&h.sum, src.Sum())
		atomicOrderMin(&h.minOrd, src.minOrd.Load())
		atomicOrderMax(&h.maxOrd, src.maxOrd.Load())
	}
	h.mergeExemplars(src)
}

// Registry holds named instruments. The zero value is not usable;
// create one with NewRegistry. A nil *Registry hands out nil
// instruments, so "no registry" disables a package's probes without any
// call-site branching.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// All histograms share the fixed log-linear bucket grid, so no bucket
// configuration is needed (or possible — fixed buckets are what keep
// shards mergeable). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Merge folds every instrument of src into r: counters add their
// totals, gauges take src's value, histograms merge bucket-for-bucket.
// Instruments missing from r are created, so the merged registry's
// snapshot covers the union of names. Iteration is in sorted-name
// order and src's instruments are collected before r's lock is touched,
// so merging is deterministic and two registries can never deadlock
// each other. A nil receiver or source is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	type namedCounter struct {
		name string
		v    float64
	}
	type namedGauge struct {
		name string
		v    float64
	}
	type namedHist struct {
		name string
		h    *Histogram
	}
	src.mu.Lock()
	counters := make([]namedCounter, 0, len(src.counters))
	for name, c := range src.counters {
		counters = append(counters, namedCounter{name, c.Value()})
	}
	gauges := make([]namedGauge, 0, len(src.gauges))
	for name, g := range src.gauges {
		gauges = append(gauges, namedGauge{name, g.Value()})
	}
	hists := make([]namedHist, 0, len(src.hists))
	for name, h := range src.hists {
		hists = append(hists, namedHist{name, h})
	}
	src.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, c := range counters {
		r.Counter(c.name).Add(c.v)
	}
	for _, g := range gauges {
		r.Gauge(g.name).Set(g.v)
	}
	for _, h := range hists {
		r.Histogram(h.name).Merge(h.h)
	}
}
