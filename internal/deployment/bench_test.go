package deployment

import (
	"testing"

	"beesim/internal/ledger"
)

// BenchmarkDeploymentRunLedger runs the 7-day Figure 2 deployment with
// its energy ledger on, as the reproduction does. Its allocs/op gates
// the ledger's chunked storage, the horizon-sized series and the
// untraced tracer guards.
func BenchmarkDeploymentRunLedger(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Ledger = ledger.New()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
