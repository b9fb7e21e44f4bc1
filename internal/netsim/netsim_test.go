package netsim

import (
	"math"
	"testing"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/stats"
)

func TestNewLinkValidation(t *testing.T) {
	bad := []Config{
		{NominalThroughput: 0},
		{NominalThroughput: 100, Sigma: -1},
		{NominalThroughput: 100, SetupTime: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewLink(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRoutinePayloadSize(t *testing.T) {
	p := RoutinePayload()
	// 3*441000 + 5*180000 + 2000 = 2,225,000 bytes.
	if p != 2_225_000 {
		t.Fatalf("routine payload = %d, want 2225000", p)
	}
}

func TestDeterministicLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sigma = 0
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := l.Send(RoutinePayload())
	// Sigma 0 transfers at exactly the nominal throughput.
	want := cfg.SetupTime +
		time.Duration(float64(RoutinePayload())/cfg.NominalThroughput*float64(time.Second))
	if tr.Duration != want {
		t.Fatalf("deterministic duration = %v, want %v", tr.Duration, want)
	}
	// Calibration target: full payload ~15 s (paper's send-audio step).
	if tr.Duration < 13*time.Second || tr.Duration > 17*time.Second {
		t.Fatalf("routine transfer = %v, want ~15 s", tr.Duration)
	}
}

func TestThroughputMedianNearNominal(t *testing.T) {
	l, err := NewLink(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tputs []float64
	for i := 0; i < 2000; i++ {
		tputs = append(tputs, l.Send(AudioSample10s).Throughput)
	}
	med, err := stats.Percentile(tputs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-150_000)/150_000 > 0.05 {
		t.Fatalf("median throughput = %v, want ~150000", med)
	}
}

func TestTransferVarianceMatchesPaperScale(t *testing.T) {
	// The paper reports sigma = 3.5 s on an ~89 s routine dominated by a
	// ~15 s transfer. Our full-payload transfer spread must be in the
	// same range (a few seconds), not milliseconds or minutes.
	l, err := NewLink(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var o stats.Online
	for i := 0; i < 1000; i++ {
		o.Add(l.Send(RoutinePayload()).Duration.Seconds())
	}
	if sd := o.StdDev(); sd < 1 || sd > 7 {
		t.Fatalf("transfer stddev = %.2f s, want 1-7 s", sd)
	}
}

func TestEnergyProportionalToDuration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sigma = 0
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := l.Send(ScalarBatch)
	large := l.Send(RoutinePayload())
	if large.ExtraEnergy <= small.ExtraEnergy {
		t.Fatal("larger payload did not cost more energy")
	}
	wantJ := 0.45 * large.Duration.Seconds()
	if math.Abs(float64(large.ExtraEnergy)-wantJ) > 1e-9 {
		t.Fatalf("energy = %v, want %v", large.ExtraEnergy, wantJ)
	}
}

func TestZeroAndNegativePayload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sigma = 0
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	z := l.Send(0)
	if z.Duration != cfg.SetupTime {
		t.Fatalf("zero payload duration = %v, want setup %v", z.Duration, cfg.SetupTime)
	}
	n := l.Send(-100)
	if n.Duration != cfg.SetupTime || n.Payload != 0 {
		t.Fatalf("negative payload handled wrong: %+v", n)
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, _ := NewLink(DefaultConfig())
	b, _ := NewLink(DefaultConfig())
	for i := 0; i < 100; i++ {
		if a.Send(Image800x600).Duration != b.Send(Image800x600).Duration {
			t.Fatal("equal seeds diverged")
		}
	}
}

func TestLinkLedgerRecordsRadioOverlay(t *testing.T) {
	l, err := NewLink(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	at := time.Date(2023, 4, 10, 6, 0, 0, 0, time.UTC)
	l.AttachLedger(lg, "cachan-1", func() time.Time { return at })
	tr := l.Send(RoutinePayload())
	entries := lg.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Component != "radio" || e.Dir != ledger.Consume ||
		e.Joules != float64(tr.ExtraEnergy) || e.Store != "" {
		t.Fatalf("entry = %+v (transfer %+v)", e, tr)
	}
	// AttachLedger without a clock must stay inert, not panic in Send.
	l2, _ := NewLink(DefaultConfig())
	l2.AttachLedger(lg, "h", nil)
	l2.Send(ScalarBatch)
	if lg.Len() != 1 {
		t.Fatalf("clockless attach recorded entries: %d", lg.Len())
	}
}
