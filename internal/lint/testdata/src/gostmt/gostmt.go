// Fixture: gostmt flags go statements spawned inside DES timer
// handlers (where they would race the single-threaded virtual clock),
// calls into internal/parallel from inside a handler (fan-out must
// stay outside the event loop), and any other go statement in
// simulated code (concurrency goes through internal/parallel).
package gostmt

import (
	"time"

	"beesim/internal/des"
	"beesim/internal/parallel"
)

func work() {}

func schedule(start time.Time) {
	s := des.New(start)
	_ = s.Every(time.Minute, func() {
		go work() // want gostmt "go statement inside a des.Sim.Every handler"
	})
	_ = s.Every(time.Hour, func() {
		work()
	})
	_ = s.Every(time.Minute, func() {
		_, _ = parallel.Map(2, 4, func(i int) (int, error) { return i, nil }) // want gostmt "parallel.Map inside a des.Sim.Every handler"
	})
	go work() // want gostmt "go statement outside internal/parallel"
	s.Run(start.Add(2 * time.Hour))
}

// fanOut calls the sanctioned layer outside any event handler: fine.
func fanOut() ([]int, error) {
	return parallel.Map(2, 4, func(i int) (int, error) { return i * i, nil })
}
