// Admission-control integration tests: a live server with a tight
// inflight budget must answer overload with typed reject frames, keep
// its books honest (a reject is never a delivered upload) and surface the
// breach on /api/slo. Delivery after a retried reject is pinned by
// loadgen, whose replay client is the one that retries.
//
//beelint:allow walltime these tests coordinate real concurrent sessions against a live server
package hivenet

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/obs"
	"beesim/internal/proto"
	"beesim/internal/slo"
)

// admissionServerConfig is a small observed server with a one-upload
// inflight budget and a handling stall long enough to overlap a
// second upload deterministically.
func admissionServerConfig(stall time.Duration) ServerConfig {
	cfg := DefaultServerConfig()
	cfg.TrainCorpus = 12
	cfg.ClipSeconds = 0.25
	cfg.Metrics = obs.NewRegistry()
	cfg.Admission = AdmissionConfig{
		MaxInflightUploads: 1,
		UploadStall:        stall,
		RetryAfter:         10 * time.Millisecond,
	}
	return cfg
}

// rawSession opens a bare protocol session (hello/welcome) on a test
// server, bypassing the Agent so frames can be interleaved precisely.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := proto.Encode(conn, proto.TypeHello,
		proto.Hello{HiveID: "raw", WakePeriodSeconds: 300, Version: 1}, nil); err != nil {
		t.Fatal(err)
	}
	f, err := proto.Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeWelcome {
		t.Fatalf("hello answered with %v", f.Type)
	}
	return conn
}

// sendUpload writes one well-formed audio upload frame.
func sendUpload(t *testing.T, conn net.Conn, at time.Time) {
	t.Helper()
	n := audio.SampleRate / 4
	pcm := proto.PCMEncode(make([]float64, n))
	if err := proto.Encode(conn, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID:     "raw",
		Time:       at,
		SampleRate: audio.SampleRate,
		Samples:    n,
	}, pcm); err != nil {
		t.Fatal(err)
	}
}

// waitInflight polls the inflight gauge until it reaches want.
func waitInflight(t *testing.T, s *Server, want float64) {
	t.Helper()
	g := s.Metrics().Gauge(MetricInflightUploads)
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %v, want %v", g.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitIdle polls until the inflight gauge drains to zero. The budget
// slot is released just after the Result frame is written, so a client
// that has read its Result must still wait a beat before the slot is
// provably free.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	g := s.Metrics().Gauge(MetricInflightUploads)
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %v, want 0", g.Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAdmissionRejectOnWire(t *testing.T) {
	s := startServer(t, admissionServerConfig(500*time.Millisecond))
	at := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)

	// Session 1 occupies the single budget slot (its reply arrives only
	// after the stall); session 2's upload must get a typed reject.
	c1 := rawSession(t, s.Addr())
	c2 := rawSession(t, s.Addr())
	sendUpload(t, c1, at)
	waitInflight(t, s, 1)
	sendUpload(t, c2, at)

	f, err := proto.Decode(c2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeReject {
		t.Fatalf("overload answered with %v, want reject", f.Type)
	}
	var rej proto.RejectBody
	if err := f.Unmarshal(proto.TypeReject, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != proto.RejectOverCapacity {
		t.Fatalf("reject code %q", rej.Code)
	}
	if rej.RetryAfterS <= 0 {
		t.Fatal("reject carries no retry-after hint")
	}

	// The session survives the reject: the same connection can still
	// deliver once the slot frees up.
	f, err = proto.Decode(c1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeResult {
		t.Fatalf("admitted upload answered with %v", f.Type)
	}
	waitIdle(t, s)
	sendUpload(t, c2, at.Add(time.Second))
	f, err = proto.Decode(c2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeResult {
		t.Fatalf("post-reject upload answered with %v", f.Type)
	}

	// Books: exactly 1 reject, exactly 2 delivered uploads; the reject
	// was never counted as an upload.
	st := s.Stats()
	if st.Rejects != 1 || st.Uploads != 2 {
		t.Fatalf("stats rejects=%d uploads=%d, want 1 and 2", st.Rejects, st.Uploads)
	}
	snap := s.Metrics().Snapshot()
	if c, _ := snap.FindCounter(MetricAdmissionRejects); c != 1 {
		t.Fatalf("%s = %v, want 1", MetricAdmissionRejects, c)
	}
	if c, _ := snap.FindCounter(MetricUploads); c != 2 {
		t.Fatalf("%s = %v, want 2", MetricUploads, c)
	}
	if h, ok := snap.FindHistogram(MetricQueueDepth); !ok || h.Count != 3 {
		t.Fatalf("queue-depth histogram count = %v, want one observation per arriving upload", h.Count)
	}
}

func TestAdmissionBreachOnSLOEndpoint(t *testing.T) {
	s := startServer(t, admissionServerConfig(500*time.Millisecond))
	at := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)

	c1 := rawSession(t, s.Addr())
	c2 := rawSession(t, s.Addr())
	sendUpload(t, c1, at)
	waitInflight(t, s, 1)
	sendUpload(t, c2, at)
	if f, err := proto.Decode(c2); err != nil || f.Type != proto.TypeReject {
		t.Fatalf("expected reject, got %v (%v)", f.Type, err)
	}
	if f, err := proto.Decode(c1); err != nil || f.Type != proto.TypeResult {
		t.Fatalf("expected result, got %v (%v)", f.Type, err)
	}

	// One delivered, one rejected: an objective allowing at most 1%
	// rejects per delivered upload is in breach, and /api/slo says so.
	spec, err := slo.ParseSpec([]byte(`{
	  "name": "admission", "objectives": [
	    {"name": "admission headroom", "kind": "availability",
	     "total_metric": "hivenet_uploads_total",
	     "bad_metric": "hivenet_admission_rejects_total",
	     "min_ratio": 0.99}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDashboard(s)
	d.SetSLO(spec)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/slo = %d: %s", rec.Code, rec.Body.String())
	}
	var rep slo.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatalf("SLO passed despite a reject storm: %s", rec.Body.String())
	}
}

func TestSessionCapRefusesHello(t *testing.T) {
	cfg := admissionServerConfig(0)
	cfg.Admission.MaxSessions = 1
	s := startServer(t, cfg)

	first := rawSession(t, s.Addr())
	defer first.Close()

	cfgA := DefaultAgentConfig("late")
	cfgA.ClipSeconds = 0.25
	_, err := Dial(s.Addr(), cfgA)
	if err == nil {
		t.Fatal("second session admitted past the cap")
	}
	var rej *rejectError
	if !errors.As(err, &rej) {
		t.Fatalf("want a typed reject, got %v", err)
	}
	if rej.Code != proto.RejectServerFull {
		t.Fatalf("reject code %q", rej.Code)
	}
	if s.Stats().Rejects != 1 {
		t.Fatalf("rejects = %d", s.Stats().Rejects)
	}
}

func TestArchiveCapBoundsServerMemory(t *testing.T) {
	cfg := admissionServerConfig(0)
	cfg.Admission.MaxArchiveRecords = 4
	s := startServer(t, cfg)
	at := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)

	conn := rawSession(t, s.Addr())
	for i := 0; i < 6; i++ {
		sendUpload(t, conn, at.Add(time.Duration(i)*time.Minute))
		if f, err := proto.Decode(conn); err != nil || f.Type != proto.TypeResult {
			t.Fatalf("upload %d answered with %v (%v)", i, f.Type, err)
		}
	}
	if got := s.Archive().Len(); got > 4 {
		t.Fatalf("archive holds %d records past cap 4", got)
	}
	st := s.Stats()
	if st.ArchiveShed != 2 {
		t.Fatalf("shed %d records, want 2 (6 verdicts - cap 4)", st.ArchiveShed)
	}
	snap := s.Metrics().Snapshot()
	if c, _ := snap.FindCounter(MetricArchiveShed); int(c) != st.ArchiveShed {
		t.Fatalf("%s = %v, stats say %d", MetricArchiveShed, c, st.ArchiveShed)
	}
}
