package hivenet

import (
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"beesim/internal/hive"
	"beesim/internal/routine"
	"beesim/internal/store"
)

// startServer boots a server on a loopback port and returns it with a
// cleanup hook.
func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", ServerConfig{MaxParallel: 0, Slots: 5, TrainCorpus: 20, ClipSeconds: 1}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{MaxParallel: 5, Slots: 5, TrainCorpus: 2, ClipSeconds: 1}); err == nil {
		t.Error("tiny corpus accepted")
	}
}

// TestNewServerSharesTrainedDetector: servers built concurrently from
// one (Seed, TrainCorpus, ClipSeconds) triple share one trained
// detector, and a training that fails is retried rather than cached.
func TestNewServerSharesTrainedDetector(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.TrainCorpus = 12
	cfg.ClipSeconds = 0.25
	cfg.Seed = 4242
	servers := make([]*Server, 4)
	var wg sync.WaitGroup
	for i := range servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewServer("127.0.0.1:0", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			servers[i] = s
		}(i)
	}
	wg.Wait()
	for _, s := range servers {
		if s == nil {
			t.FailNow()
		}
		defer s.Close()
		if s.detector != servers[0].detector {
			t.Fatal("servers with one training config trained separate detectors")
		}
	}

	short := cfg
	short.ClipSeconds = 0.01 // shorter than one STFT window: training fails
	for i := 0; i < 2; i++ {
		if _, err := NewServer("127.0.0.1:0", short); err == nil {
			t.Fatal("untrainable clip length accepted")
		}
	}
	detectorMu.Lock()
	_, cached := detectors[detectorKey{seed: short.Seed, trainCorpus: short.TrainCorpus, clipSeconds: short.ClipSeconds}]
	detectorMu.Unlock()
	if cached {
		t.Fatal("a failed training was cached")
	}
}

func TestEndToEndEdgeCloudCycle(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	if s.DetectorAccuracy() < 0.8 {
		t.Fatalf("server detector accuracy = %v", s.DetectorAccuracy())
	}

	cfg := DefaultAgentConfig("cachan-1")
	cfg.Seed = 77
	agent, err := Dial(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	now := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)
	res, err := agent.RunCycle(hive.QueenPresent, 0.7, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedAt != "cloud" {
		t.Fatalf("computed at %q, want cloud", res.ComputedAt)
	}
	if !res.QueenPresent {
		t.Error("queen-present clip classified queenless")
	}
	if res.Confidence < 0 || res.Confidence > 1 {
		t.Fatalf("confidence = %v", res.Confidence)
	}
	if res.HiveID != "cachan-1" || !res.Time.Equal(now) {
		t.Fatalf("result identity lost: %+v", res)
	}

	res, err = agent.RunCycle(hive.QueenLost, 0.7, now.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.QueenPresent {
		t.Error("queenless clip classified queen-present")
	}

	st := s.Stats()
	if st.Uploads != 2 || st.Reports != 2 || st.Sessions != 1 {
		t.Fatalf("server stats = %+v", st)
	}
	// Each upload is one receive+execute burst: (68.8-44.6)*15 + (63-44.6)*0.1 ≈ 364.8 J.
	wantBurst := 2 * 364.84
	if math.Abs(float64(st.BurstEnergy)-wantBurst) > 2 {
		t.Fatalf("burst energy = %v, want ~%v J", st.BurstEnergy, wantBurst)
	}
}

func TestEndToEndEdgeOnlyCycle(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	cfg := DefaultAgentConfig("lyon-3")
	cfg.Placement = routine.EdgeOnly
	cfg.Seed = 5
	agent, err := Dial(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	res, err := agent.RunCycle(hive.QueenPresent, 0.8, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedAt != "edge" {
		t.Fatalf("computed at %q, want edge", res.ComputedAt)
	}
	if !res.QueenPresent {
		t.Error("edge model misclassified a queen-present clip")
	}
	st := s.Stats()
	if st.Uploads != 0 {
		t.Fatalf("edge placement caused %d uploads", st.Uploads)
	}
	if st.Reports != 2 { // sensor report + archived result
		t.Fatalf("reports = %d, want 2", st.Reports)
	}
	// Edge energy ledger: collect + SVM inference + send results + shutdown.
	want := 131.8 + 98.9 + 3.0 + 21.0
	if math.Abs(float64(agent.EdgeEnergy())-want) > 0.5 {
		t.Fatalf("edge energy = %v, want ~%v J", agent.EdgeEnergy(), want)
	}
}

func TestEdgeCloudEnergyLedger(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	agent, err := Dial(s.Addr(), DefaultAgentConfig("h1"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.RunCycle(hive.QueenPresent, 0.5, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	// Table II's active rows: collect 131.8 + send audio 37.3 + shutdown 21.0.
	want := 131.8 + 37.3 + 21.0
	if math.Abs(float64(agent.EdgeEnergy())-want) > 0.5 {
		t.Fatalf("edge energy = %v, want ~%v J", agent.EdgeEnergy(), want)
	}
	if agent.Cycles() != 1 {
		t.Fatalf("cycles = %d", agent.Cycles())
	}
}

func TestSlotAssignmentSequentialFill(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxParallel = 2
	cfg.Slots = 3
	s := startServer(t, cfg)

	var agents []*Agent
	t.Cleanup(func() {
		for _, a := range agents {
			_ = a.Close()
		}
	})
	wantSlots := []int{0, 0, 1, 1, 2, 2}
	for i, want := range wantSlots {
		a, err := Dial(s.Addr(), DefaultAgentConfig("h"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		if a.Slot() != want {
			t.Fatalf("agent %d slot = %d, want %d (sequential fill)", i, a.Slot(), want)
		}
	}
	// Capacity exhausted: the 7th hive is refused.
	if _, err := Dial(s.Addr(), DefaultAgentConfig("overflow")); err == nil {
		t.Fatal("server over capacity accepted a hive")
	} else if !strings.Contains(err.Error(), "full") {
		t.Fatalf("refusal error = %v", err)
	}
}

func TestConcurrentAgents(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxParallel = 10
	cfg.Slots = 4
	s := startServer(t, cfg)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acfg := DefaultAgentConfig("concurrent")
			acfg.Seed = uint64(100 + i)
			a, err := Dial(s.Addr(), acfg)
			if err != nil {
				errs <- err
				return
			}
			defer a.Close()
			for c := 0; c < 3; c++ {
				if _, err := a.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Sessions != n {
		t.Fatalf("sessions = %d, want %d", st.Sessions, n)
	}
	if st.Uploads != 3*n {
		t.Fatalf("uploads = %d, want %d", st.Uploads, 3*n)
	}
}

func TestAgentValidation(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	bad := DefaultAgentConfig("")
	if _, err := Dial(s.Addr(), bad); err == nil {
		t.Error("empty hive id accepted")
	}
	bad = DefaultAgentConfig("x")
	bad.ClipSeconds = 0
	if _, err := Dial(s.Addr(), bad); err == nil {
		t.Error("zero clip length accepted")
	}
}

func TestAgentCloseIsIdempotent(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	a, err := Dial(s.Addr(), DefaultAgentConfig("h"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if _, err := a.RunCycle(hive.QueenPresent, 0.5, time.Now()); err == nil {
		t.Fatal("cycle on closed agent accepted")
	}
}

// TestServerCloseUnblocksServe closes the server with no wait after
// starting Serve, so Close may land before or after Accept blocks:
// Serve must return nil either way.
func TestServerCloseUnblocksServe(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after close")
	}

	// The order the race above may hide: Close completes before Serve
	// ever reaches Accept.
	s, err = NewServer("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatalf("serve on a closed server returned %v", err)
	}
}

func TestArchiveRecordsSessions(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	agent, err := Dial(s.Addr(), DefaultAgentConfig("arch-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	now := time.Date(2023, 4, 20, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := agent.RunCycle(hive.QueenPresent, 0.6, now.Add(time.Duration(i)*5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	arch := s.Archive()
	sensors, err := arch.Query("arch-1", now, now.Add(time.Hour), store.KindSensor)
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 3 {
		t.Fatalf("archived sensor reports = %d, want 3", len(sensors))
	}
	results, err := arch.Query("arch-1", now, now.Add(time.Hour), store.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("archived results = %d, want 3", len(results))
	}
	if results[0].Text["computed_at"] != "cloud" {
		t.Fatalf("result provenance = %q", results[0].Text["computed_at"])
	}
	if results[0].Fields["queen_present"] != 1 {
		t.Fatalf("verdict fields = %v", results[0].Fields)
	}
}

func TestArchivePersistsToDisk(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ArchivePath = filepath.Join(t.TempDir(), "apiary.log")
	s := startServer(t, cfg)
	agent, err := Dial(s.Addr(), DefaultAgentConfig("disk-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.RunCycle(hive.QueenLost, 0.6, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	agent.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(cfg.ArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() < 2 { // sensor report + verdict
		t.Fatalf("persisted records = %d, want >= 2", re.Len())
	}
	rec, ok := re.Latest("disk-1", store.KindResult)
	if !ok || rec.Fields["queen_present"] != 0 {
		t.Fatalf("persisted verdict = %+v, %v", rec, ok)
	}
}

// TestListenFailureClosesArchive hands NewServer an unlistenable
// address: the freshly opened archive must be closed (and its file left
// reusable) rather than leaked with the error.
func TestListenFailureClosesArchive(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ArchivePath = filepath.Join(t.TempDir(), "apiary.log")
	if _, err := NewServer("127.0.0.1", cfg); err == nil { // no port: Listen must fail
		t.Fatal("NewServer on a portless address succeeded")
	}
	re, err := store.Open(cfg.ArchivePath)
	if err != nil {
		t.Fatalf("archive unusable after failed start: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
