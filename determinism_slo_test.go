package beesim

// SLO determinism: the observability layer built for SLO gating — the
// per-point histogram snapshots, the merged registry, and the SLO
// reports themselves — must honor the same worker-count contract as
// every other export. A CI gate that flaps with -workers is worse
// than no gate.

import (
	"bytes"
	"testing"

	"beesim/internal/experiments"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/report"
	"beesim/internal/slo"
)

// sloSpec is the checked-in example spec, loaded from disk so this
// test also pins the file's validity (the acceptance command is
// `apiarysim avail -slo examples/slo_upload.json`).
func sloSpec(t *testing.T) slo.Spec {
	t.Helper()
	spec, err := slo.LoadSpec("examples/slo_upload.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderSLOSweep runs a small faulted availability sweep and flattens
// everything the SLO layer observes: each point's histogram snapshot
// JSON, each point's SLO report JSON, and the merged registry's
// metrics CSV.
func renderSLOSweep(t *testing.T, workers int) []byte {
	t.Helper()
	spec := sloSpec(t)
	cfg, err := experiments.DefaultAvailabilityConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Step = 50 // coarse client grid keeps the inner sweeps fast
	cfg.AvailSteps = 3
	cfg.Retry = chaosPlan().RetryOrDefault()
	cfg.Seed = chaosPlan().Seed
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	cfg.Ledger = ledger.New()
	pts, err := experiments.AvailabilitySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range pts {
		if err := p.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rep, err := slo.Evaluate(spec, slo.Input{
			Snapshot: p.Obs,
			Window:   experiments.UploadSamples * experiments.Period,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := report.WriteMetricsCSV(&buf, maskWorkers(cfg.Metrics.Snapshot())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSLOReportsDeterministicAcrossWorkers pins the acceptance
// contract: histogram snapshots and SLO reports are byte-identical at
// workers 1, 2 and 8 across a faulted availability sweep.
func TestSLOReportsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("availability sweep runs many inner sweeps; run without -short")
	}
	want := renderSLOSweep(t, determinismWorkers[0])
	if len(want) == 0 {
		t.Fatal("empty render")
	}
	if !bytes.Contains(want, []byte("netsim_upload_seconds")) {
		t.Fatal("render carries no upload-latency histogram; the SLO gate would be vacuous")
	}
	for _, w := range determinismWorkers[1:] {
		if got := renderSLOSweep(t, w); !bytes.Equal(got, want) {
			t.Errorf("workers=%d SLO observability diverged from workers=1 (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}
