package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the steadiness mode reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadySet is one set of runs of a workload.
type steadySet struct {
	values            map[string][]float64
	attempted, failed int
	incorrect         int
}

// steadiness runs two alternating sets of o.steady runs of each
// workload in BENCHMARK.json (or only o.workload), each run a fresh
// process with its own seed, and prints for every end-to-end metric
// each set's quartiles, their spread as a share of the median, and the
// gap between the two medians next to the metric's bound.
func steadiness(o options, out io.Writer) error {
	data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, wl := range man.Workloads {
		if o.workload != "" && wl.Name != o.workload {
			continue
		}
		sets := [2]*steadySet{{values: map[string][]float64{}}, {values: map[string][]float64{}}}
		for k := 0; k < o.steady; k++ {
			for s, set := range sets {
				seed := uint64(1 + k + s*1000)
				cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(man.RunSeconds), "--trace", "0", "--root", o.root)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				var r result
				if err := json.Unmarshal(lastLine(stdout), &r); err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				set.attempted += r.Attempted
				set.failed += r.Failed
				if !r.Correct {
					set.incorrect++
				}
				for name, m := range r.Metrics {
					set.values[name] = append(set.values[name], m.Value)
				}
			}
		}
		fmt.Fprintf(out, "workload %s: %d runs per set, failed %d/%d and %d/%d, incorrect runs %d and %d\n",
			wl.Name, o.steady, sets[0].failed, sets[0].attempted, sets[1].failed, sets[1].attempted,
			sets[0].incorrect, sets[1].incorrect)
		fmt.Fprintf(out, "  %-16s %12s %22s %7s %12s %22s %7s %8s %6s\n",
			"metric", "A median", "A [q1, q3]", "spread", "B median", "B [q1, q3]", "spread", "gap", "bound")
		for _, m := range man.EndToEnd {
			var med [2]float64
			row := fmt.Sprintf("  %-16s", m.Name)
			worst := 0.0
			for s, set := range sets {
				q1, q2, q3 := quartiles(set.values[m.Name])
				med[s] = q2
				spread := (q3 - q1) / q2
				if m.Name != "setup_s" {
					worst = math.Max(worst, spread)
				}
				row += fmt.Sprintf(" %12.4f %22s %6.1f%%", q2, fmt.Sprintf("[%.4f, %.4f]", q1, q3), 100*spread)
			}
			// gap: how much worse set B's median is than set A's.
			gap := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if gap > m.Bound || worst > m.Bound {
				verdict, ok = "FAIL", false
			} else if math.Abs(gap) > m.Bound/3 || worst > m.Bound/3 {
				verdict = "loose"
			}
			fmt.Fprintf(out, "%s %7.1f%% %5.0f%% %s\n", row, 100*gap, 100*m.Bound, verdict)
		}
		a, b := sets[0], sets[1]
		if a.failed*b.attempted != b.failed*a.attempted || a.incorrect+b.incorrect > 0 {
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("steadiness: some metric is outside its bound, a run was incorrect, or the failed shares differ")
	}
	return nil
}
