// Command e2ebench is beesim's end-to-end benchmark. It runs one of
// four workloads — reproduce, learn, upload, plan — for a fixed time,
// checks the program's outputs, and prints its metrics; the last line
// of stdout is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash _e2ebench/run.sh --workload upload --seed 7 --seconds 15 --trace 0
//	bash _e2ebench/run.sh --steady 5 [--workload plan]
//	bash _e2ebench/run.sh --quick
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"beesim/internal/parallel"
)

// workloadOrder lists the workloads in the order the benchmark runs them.
var workloadOrder = []string{"reproduce", "learn", "upload", "plan"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "reproduce":
		return &reproduce{}, nil
	case "learn":
		return &learn{}, nil
	case "upload":
		return &upload{}, nil
	case "plan":
		return &plan{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadOrder, ", "))
}

// setupRepeats is how many processes measure set-up in one run: this
// one plus setupRepeats-1 fresh siblings, each cold. setup_s is their
// median.
const setupRepeats = 3

// sideBudget bounds each other workload's share of a traced run.
const sideBudget = time.Second

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	root      string
	setupOnly bool
	steady    int
	quick     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "run seed; every input of the run derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "measure one set-up plus warm-up op and exit (used for setup_s)")
	flag.IntVar(&o.steady, "steady", 0, "steadiness mode: run two alternating sets of N runs of each workload")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: one round of every workload, timed and traced, with all checks")
	flag.Parse()
	// One worker and one P: on the 2-vCPU machine this benchmark was
	// tuned on, two busy threads at times each ran at half the speed of
	// one, so a second runnable thread (a GC worker, the server's
	// goroutine) slowed the op's own thread by a varying amount. With
	// one P that work is serialized into the op and shows in its wall
	// time.
	parallel.SetDefault(1)
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case o.steady > 0:
		err = steadiness(o, os.Stdout)
	case o.setupOnly:
		err = setupOnly(o, os.Stdout)
	case o.quick:
		_, err = quick(o, os.Stdout)
	default:
		var res result
		res, err = benchmark(o, os.Stdout)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// newEnv prepares a workload environment with a scratch directory the
// caller must remove.
func newEnv(o options, name string, tr *tracer) (*env, error) {
	tmp, err := os.MkdirTemp("", "e2ebench-"+name+"-")
	if err != nil {
		return nil, err
	}
	return &env{seed: o.seed, root: o.root, tmp: tmp, tr: tr}, nil
}

// setupOnly measures one cold set-up (with its warm-up op) and prints
// {"setup_s": x}.
func setupOnly(o options, out io.Writer) error {
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	e, err := newEnv(o, o.workload, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)
	d, err := setupWarm(w, e)
	if err != nil {
		return errors.Join(err, w.finish())
	}
	if err := errors.Join(w.verify(-1), w.finish()); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(map[string]float64{"setup_s": d.Seconds()})
}

// siblingSetups measures set-up in fresh processes of this binary, one
// after another.
func siblingSetups(o options, n int) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for k := 0; k < n; k++ {
		cmd := exec.Command(self, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10), "--root", o.root)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sibling: %w", err)
		}
		var r struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(lastLine(stdout), &r); err != nil || r.SetupS <= 0 {
			return nil, fmt.Errorf("set-up sibling printed %q", stdout)
		}
		out = append(out, time.Duration(r.SetupS*float64(time.Second)))
	}
	return out, nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}

// benchmark runs one workload, timed (trace 0) or traced (trace 1),
// writing a human-readable table to out.
func benchmark(o options, out io.Writer) (result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return result{}, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return traced(o, w, budget, out)
	}
	setups, err := siblingSetups(o, setupRepeats-1)
	if err != nil {
		return result{}, err
	}
	e, err := newEnv(o, o.workload, nil)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.tmp)
	r, err := runRounds(w, e, budget, minRounds)
	if err != nil {
		return result{}, err
	}
	m, err := endToEnd(r, setups)
	if err != nil {
		return result{}, err
	}
	res := summarize(o.workload, r, m, out)
	printUngated(r, out)
	return res, nil
}

// traced runs the named workload traced for the whole budget, then
// every other workload briefly, so one traced run reports every
// per-layer metric. trace.coverage and runtime.gc_per_op describe the
// named workload.
func traced(o options, main workload, budget time.Duration, out io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadOrder {
		w, b, rounds := main, budget, minRounds
		if name != o.workload {
			w, _ = newWorkload(name)
			b, rounds = sideBudget, 1
		}
		tr := newTracer()
		e, err := newEnv(o, name, tr)
		if err != nil {
			return res, err
		}
		r, err := runRounds(w, e, b, rounds)
		os.RemoveAll(e.tmp)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		if len(r.okOps) == 0 {
			return res, fmt.Errorf("%s: no successful traced op", name)
		}
		layers := perLayer(w, r, tr)
		if name == o.workload {
			path := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, o.seed))
			if err := tr.write(path); err != nil {
				return res, err
			}
			part := summarize(name, r, layers, out)
			ms := durationsIn(r.opTimes, time.Millisecond)
			fmt.Fprintf(out, "  traced op p50 %.4f ms, p90 %.4f ms (an untraced run of the same seed gives the tracing overhead)\n",
				median(ms), quantile(ms, 0.90))
			res.Correct = res.Correct && part.Correct
			for k, v := range layers {
				res.Metrics[k] = v
			}
		} else {
			part := summarize(name+" (side)", r, nil, out)
			res.Correct = res.Correct && part.Correct
			for _, l := range w.layers() {
				if l.metric != "" {
					res.Metrics[l.metric] = layers[l.metric]
				}
			}
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res, nil
}

// summarize prints a run's metrics and check failures and folds them
// into a result.
func summarize(name string, r *timedRun, m map[string]metric, out io.Writer) result {
	fmt.Fprintf(out, "workload %s: %d ops attempted, %d failed\n", name, r.attempted, r.failed)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, err := range r.opErrs {
		fmt.Fprintf(out, "  FAILED op: %v\n", err)
	}
	for _, err := range r.checkErrs {
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
	return result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}
