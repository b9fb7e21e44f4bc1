package beesim

import (
	"math"
	"strings"
	"testing"
	"time"

	"beesim/internal/experiments"
)

// The root package is a façade; these tests pin the public API surface
// and its headline numbers so downstream users get a stable contract.

func TestServiceFacade(t *testing.T) {
	svc, err := NewService(CNN, DefaultPeriod)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(svc.EdgeOnlyCycle)-367.5) > 0.2 {
		t.Fatalf("edge-only cycle = %v", svc.EdgeOnlyCycle)
	}
	if math.Abs(float64(svc.EdgeCloudCycle)-322.0) > 0.2 {
		t.Fatalf("edge+cloud cycle = %v", svc.EdgeCloudCycle)
	}
}

func TestRecommendFacade(t *testing.T) {
	svc, err := NewService(CNN, DefaultPeriod)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recommend(5, DefaultServer(35), svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Placement != EdgeOnly {
		t.Fatalf("5 hives recommended %v, want edge", rec.Placement)
	}
	rec, err = Recommend(1500, DefaultServer(35), svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Placement != EdgeCloud {
		t.Fatalf("1500 hives recommended %v, want edge+cloud", rec.Placement)
	}
}

func TestAllocateFacade(t *testing.T) {
	svc, err := NewService(SVM, DefaultPeriod)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(100, DefaultServer(10), svc, PaperLosses(false, false, false), FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumServers() != 1 {
		t.Fatalf("servers = %d", alloc.NumServers())
	}
}

func TestAveragePowerFacade(t *testing.T) {
	if p := AveragePower(5 * time.Minute); math.Abs(float64(p)-1.19) > 0.01 {
		t.Fatalf("average power at 5 min = %v, want 1.19 W", p)
	}
}

func TestTraceFacade(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Days = 1
	tr, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Wakeups == 0 {
		t.Fatal("no wakeups")
	}
}

func TestQueenDetectionFacade(t *testing.T) {
	cfg := DefaultAudioConfig()
	cfg.Seconds = 1
	corpus, err := SynthesizeCorpus(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainSVMDetector(corpus, AudioSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if det.Metrics.Accuracy < 0.85 {
		t.Fatalf("SVM detector accuracy = %v", det.Metrics.Accuracy)
	}
}

// TestExperimentEntryPoints pins the reproduction list: every artifact
// the paper reports, once, in order, and the quick ones render.
func TestExperimentEntryPoints(t *testing.T) {
	var ids []string
	for _, a := range experiments.Artifacts() {
		ids = append(ids, a.ID)
		if a.Title == "" || a.Run == nil {
			t.Errorf("%s: incomplete entry", a.ID)
		}
		switch a.ID {
		case "T1", "T2", "F3", "S4":
			out, err := a.Run(1)
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			if len(out.Text) == 0 {
				t.Errorf("%s: empty text", a.ID)
			}
		}
	}
	want := "T1 T2 F2 F3 S4 F5 F6 F7 F8A F8B F8C F8 F9 AV"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("artifact IDs = %s, want %s", got, want)
	}
}
