package main

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// quick runs one round of every workload, timed and then traced, with
// all of their checks, and returns every metric it saw by name. It is
// the benchmark's own smoke test (quick_test.go, or --quick).
func quick(o options, out io.Writer) (map[string]metric, error) {
	seen := map[string]metric{}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name)
			if err != nil {
				return nil, err
			}
			var tr *tracer
			mode := "timed"
			if traced {
				tr, mode = newTracer(), "traced"
			}
			e, err := newEnv(o, name, tr)
			if err != nil {
				return nil, err
			}
			r, err := runRounds(w, e, 0, 1)
			os.RemoveAll(e.tmp)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, mode, err)
			}
			var m map[string]metric
			if traced {
				m = perLayer(w, r, tr)
			} else if m, err = endToEnd(r, nil); err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, mode, err)
			}
			res := summarize(name+" "+mode, r, m, out)
			if !res.Correct || res.Failed > 0 {
				return nil, fmt.Errorf("%s %s: %w", name, mode, errors.Join(append(r.opErrs, r.checkErrs...)...))
			}
			for k, v := range m {
				seen[k] = v
			}
		}
	}
	return seen, nil
}
