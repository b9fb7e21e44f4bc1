package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"beesim/internal/rng"
)

// workload is one end-to-end scenario. Ops are numbered from 0; the
// untimed warm-up op is -1. Every op derives its inputs from opSeed.
type workload interface {
	// setup builds the run's inputs and services from e.seed. Set-up
	// spans go to e.tr (nil on the timed run).
	setup(e *env) error
	// op runs operation i; tr is nil on the timed run.
	op(i int, tr *tracer) error
	// verify checks the outputs of op i against independent
	// computations or properties of the method. It is never timed.
	verify(i int) error
	// finish runs the end-of-run checks and releases everything setup
	// took (servers, connections, files).
	finish() error
	// round is the number of consecutive ops that form one whole round;
	// a run always stops at a round boundary.
	round() int
	// layers lists the per-layer metrics the traced run reports.
	layers() []layer
}

// replayer is implemented by workloads whose layers run out of the
// benchmark's reach (in another goroutine, behind a socket): after each
// traced op they replay those stages on the op's own data, and the
// replay spans are attributed to the op.
type replayer interface {
	replay(i int, tr *tracer) error
}

// env is what a workload's set-up may use.
type env struct {
	seed uint64
	root string // checkout root, for the repo's example specs
	tmp  string // scratch directory owned by this run
	tr   *tracer
}

// opSeed derives op i's seed from the run seed; the warm-up op (-1)
// takes stream 0.
func opSeed(seed uint64, i int) uint64 { return rng.StreamSeed(seed, uint64(i+1)) }

// layer describes one per-layer metric: a span name summed per op
// (span), a count recorded per op (count), a set-up span (setupSpan),
// or, with unattributed set, the op time the span layers leave. Every
// span layer counts toward trace.coverage; one with no metric name
// counts only there.
type layer struct {
	metric       string
	unit         string
	span         string
	count        string
	setupSpan    string
	scale        time.Duration // time unit of span layers
	unattributed bool
}

// sample is a snapshot of the runtime counters the harness diffs
// around every timed op.
type sample struct {
	allocs uint64
	gcs    uint64
}

var metricSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func takeSample() sample {
	metrics.Read(metricSamples)
	return sample{allocs: metricSamples[0].Value.Uint64(), gcs: metricSamples[1].Value.Uint64()}
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedRun is what one workload run measured.
type timedRun struct {
	setup     time.Duration
	opTimes   []time.Duration // successful timed ops
	okOps     []int           // their ordinals
	opErrs    []error
	attempted int
	failed    int
	allocs    uint64
	gcs       uint64
	checkErrs []error
}

func (r *timedRun) checkErr(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

// setupWarm runs set-up plus the untimed warm-up op and returns their
// wall time: the workload's setup_s.
func setupWarm(w workload, e *env) (time.Duration, error) {
	start := time.Now()
	if err := w.setup(e); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	e.tr.setOp(-2) // warm-up spans belong to no op and no set-up
	if err := w.op(-1, e.tr); err != nil {
		return 0, fmt.Errorf("warm-up op: %w", err)
	}
	return time.Since(start), nil
}

// minRounds keeps a run from ending before it has enough ops for a
// median, whatever the time budget.
const minRounds = 3

// runRounds executes a workload: set-up with warm-up, then whole
// rounds of ops until budget has elapsed and at least rounds rounds
// have run. With tr nil the ops are timed in
// isolation and bracketed by CPU and allocation counters; with tr set
// every op runs inside an "op" span and replayers add their replay
// spans.
func runRounds(w workload, e *env, budget time.Duration, rounds int) (*timedRun, error) {
	res := &timedRun{}
	setup, err := setupWarm(w, e)
	if err != nil {
		return nil, errors.Join(err, w.finish())
	}
	res.setup = setup
	res.checkErr(w.verify(-1))

	tr := e.tr
	rep, _ := w.(replayer)
	round := w.round()
	start := time.Now()
	for i := 0; ; i++ {
		if i%round == 0 && (time.Since(start) >= budget && i >= rounds*round) {
			break
		}
		res.attempted++
		tr.setOp(i)
		before := takeSample()
		t0 := time.Now()
		var opErr error
		if tr != nil {
			opErr = tr.do("op", func() error { return w.op(i, tr) })
		} else {
			opErr = w.op(i, nil)
		}
		d := time.Since(t0)
		after := takeSample()
		res.allocs += after.allocs - before.allocs
		res.gcs += after.gcs - before.gcs
		if opErr != nil {
			res.failed++
			res.opErrs = append(res.opErrs, opErr)
			continue
		}
		res.opTimes = append(res.opTimes, d)
		res.okOps = append(res.okOps, i)
		if rep != nil && tr != nil {
			res.checkErr(rep.replay(i, tr))
		}
		res.checkErr(w.verify(i))
	}
	res.checkErr(w.finish())
	return res, nil
}

// quantile is the type-7 (linear interpolation) sample quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	if int(lo)+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[int(lo)] + (h-lo)*(s[int(lo)+1]-s[int(lo)])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd turns a timed run (plus the set-up times of its sibling
// processes) into the end-to-end metrics.
func endToEnd(r *timedRun, setups []time.Duration) (map[string]metric, error) {
	if len(r.opTimes) == 0 {
		return nil, errors.New("no successful timed op")
	}
	all := append([]time.Duration{r.setup}, setups...)
	return map[string]metric{
		"setup_s":         {median(durationsIn(all, time.Second)), "s"},
		"op_p90_ms":       {quantile(durationsIn(r.opTimes, time.Millisecond), 0.90), "ms"},
		"alloc_mb_per_op": {float64(r.allocs) / (1 << 20) / float64(r.attempted), "MB"},
		"rss_peak_mb":     {peakRSSMB(), "MB"},
	}, nil
}

// printUngated prints the median op time and the op rate. They are not
// reported: on the machine the benchmark was tuned on they moved by up
// to 27 % between runs of identical code (README: "Steadiness").
func printUngated(r *timedRun, out io.Writer) {
	ops := durationsIn(r.opTimes, time.Millisecond)
	var total float64
	for _, v := range ops {
		total += v
	}
	fmt.Fprintf(out, "  not gated: op p50 %.4f ms, %.4f ops per second of op time\n",
		median(ops), float64(len(ops))/(total/1000))
}

// perLayer computes a traced run's layer metrics from its spans.
func perLayer(w workload, r *timedRun, tr *tracer) map[string]metric {
	ops := r.okOps
	opMS := tr.perOp("op", ops, time.Millisecond)
	attributed := make([]float64, len(ops)) // ms per op
	out := map[string]metric{}
	var unattributed []layer
	for _, l := range w.layers() {
		var v float64
		switch {
		case l.unattributed:
			unattributed = append(unattributed, l)
			continue
		case l.setupSpan != "":
			v = tr.setupSpan(l.setupSpan, l.scale)
		case l.count != "":
			v = median(tr.countsPerOp(l.count, ops))
		default:
			vals := tr.perOp(l.span, ops, l.scale)
			for i, x := range vals {
				attributed[i] += x * float64(l.scale) / float64(time.Millisecond)
			}
			v = median(vals)
		}
		if l.metric != "" {
			out[l.metric] = metric{v, l.unit}
		}
	}
	cov := make([]float64, len(ops))
	rest := make([]float64, len(ops))
	for i := range ops {
		cov[i] = attributed[i] / opMS[i]
		rest[i] = opMS[i] - attributed[i]
	}
	for _, l := range unattributed {
		out[l.metric] = metric{median(rest) * float64(time.Millisecond) / float64(l.scale), l.unit}
	}
	out["trace.coverage"] = metric{median(cov), "ratio"}
	out["runtime.gc_per_op"] = metric{float64(r.gcs) / float64(r.attempted), "count"}
	return out
}
