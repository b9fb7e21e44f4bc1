package hivenet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hive"
	"beesim/internal/obs"
	"beesim/internal/proto"
)

// FuzzDashboardHTTP throws arbitrary methods and request targets at
// the dashboard mux, including the query-parameter parsers behind
// /api/records (hive, kind, hours). The server is primed with one real
// upload cycle so every handler has data to serve. The invariant is
// simple: any parseable request gets an HTTP response, never a panic.
func FuzzDashboardHTTP(f *testing.F) {
	s, err := NewServer("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		f.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	f.Cleanup(func() { _ = s.Close() })

	agent, err := Dial(s.Addr(), DefaultAgentConfig("fuzz-1"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := agent.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
		f.Fatal(err)
	}
	_ = agent.Close()
	d := NewDashboard(s)

	seeds := []struct{ method, target string }{
		{http.MethodGet, "/"},
		{http.MethodGet, "/api/stats"},
		{http.MethodGet, "/api/hives"},
		{http.MethodGet, "/api/ledger"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/api/metrics"},
		{http.MethodGet, "/api/records?hive=fuzz-1&kind=result"},
		{http.MethodGet, "/api/records?hive=fuzz-1&kind=sensor&hours=0.5"},
		{http.MethodGet, "/api/records?hive=fuzz-1&kind=banana"},
		{http.MethodGet, "/api/records?hours=-1"},
		{http.MethodGet, "/api/records?hive=%00&hours=1e309"},
		{http.MethodPost, "/api/records?hive=fuzz-1"},
		{http.MethodDelete, "/nope"},
		{http.MethodGet, "/api/records?hive=a&hours=NaN"},
	}
	for _, s := range seeds {
		f.Add(s.method, s.target)
	}
	f.Fuzz(func(t *testing.T, method, target string) {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return // unparseable target: nothing for the mux to see
		}
		req := &http.Request{
			Method:     method,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Host:       "fuzz.test",
			RemoteAddr: "198.51.100.7:1234",
			Body:       http.NoBody,
		}
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, req)
		if rec.Code < 100 || rec.Code > 599 {
			t.Errorf("%s %q: implausible status %d", method, target, rec.Code)
		}
	})
}

// scriptConn is a net.Conn whose reads come from a scripted byte
// stream and whose writes are discarded — enough to drive the server's
// session loop without a socket.
type scriptConn struct{ r io.Reader }

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// encodeFrame renders one frame to bytes via the real encoder.
func encodeFrame(t testing.TB, typ proto.Type, body any, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := proto.Encode(&buf, typ, body, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzAdmission holds the two shared fuzz servers: one idle (uploads
// are admitted) and one with its single inflight slot permanently
// held, so every upload takes the typed-reject path. Built once per
// process — detector training is far too slow per fuzz execution.
var fuzzAdmission struct {
	once  sync.Once
	err   error
	idle  *Server
	busy  *Server
	hello []byte
}

func fuzzAdmissionSetup() error {
	fuzzAdmission.once.Do(func() {
		mk := func() (*Server, error) {
			cfg := DefaultServerConfig()
			cfg.TrainCorpus = 12
			cfg.ClipSeconds = 0.25
			cfg.Slots = 1
			cfg.MaxParallel = 1 << 30 // fuzz opens one session per execution; slots are never released
			cfg.Metrics = obs.NewRegistry()
			cfg.Admission = AdmissionConfig{
				MaxInflightUploads: 1,
				MaxArchiveRecords:  8,
			}
			return NewServer("127.0.0.1:0", cfg)
		}
		if fuzzAdmission.idle, fuzzAdmission.err = mk(); fuzzAdmission.err != nil {
			return
		}
		if fuzzAdmission.busy, fuzzAdmission.err = mk(); fuzzAdmission.err != nil {
			return
		}
		// A permanently stuck upload: the busy server's budget is full
		// before any fuzzed frame arrives.
		fuzzAdmission.busy.inflight.Add(1)
		var buf bytes.Buffer
		fuzzAdmission.err = proto.Encode(&buf, proto.TypeHello,
			proto.Hello{HiveID: "fuzz", WakePeriodSeconds: 300, Version: 1}, nil)
		fuzzAdmission.hello = buf.Bytes()
	})
	return fuzzAdmission.err
}

// FuzzAdmissionFrame replays arbitrary post-hello frame bytes through
// the server session loop on both an idle and a saturated server:
// truncated frames, oversized length prefixes and malformed bodies
// must produce session errors, never panics, and must always release
// the inflight budget they were admitted under.
func FuzzAdmissionFrame(f *testing.F) {
	if err := fuzzAdmissionSetup(); err != nil {
		f.Fatal(err)
	}

	clip := make([]float64, audio.SampleRate/4)
	upload := encodeFrame(f, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: "fuzz", Time: time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC),
		SampleRate: audio.SampleRate, Samples: len(clip),
	}, proto.PCMEncode(clip))
	sensor := encodeFrame(f, proto.TypeSensorReport, proto.SensorReport{HiveID: "fuzz"}, nil)
	bye := encodeFrame(f, proto.TypeBye, nil, nil)

	f.Add(upload)
	f.Add(append(append([]byte{}, sensor...), bye...))
	f.Add(upload[:len(upload)/2]) // truncated mid-payload
	f.Add(upload[:13])            // header only
	// Oversized declared raw length with no data behind it.
	over := make([]byte, 13)
	binary.BigEndian.PutUint32(over[0:4], proto.Magic)
	over[4] = byte(proto.TypeAudioUpload)
	binary.BigEndian.PutUint32(over[9:13], 1<<31)
	f.Add(over)
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []*Server{fuzzAdmission.idle, fuzzAdmission.busy} {
			conn := &scriptConn{r: io.MultiReader(
				bytes.NewReader(fuzzAdmission.hello), bytes.NewReader(data))}
			_ = s.handle(conn) // session errors are expected; panics are the bug
		}
		// The budget always drains: admitted uploads release their slot
		// on every exit path, so the idle server returns to zero and
		// the busy one holds exactly its pinned slot.
		if got := fuzzAdmission.idle.inflight.Load(); got != 0 {
			t.Fatalf("idle server leaked %d inflight slots", got)
		}
		if got := fuzzAdmission.busy.inflight.Load(); got != 1 {
			t.Fatalf("busy server inflight = %d, want the 1 pinned slot", got)
		}
		// Shed-oldest keeps the archive bounded no matter the input.
		for _, s := range []*Server{fuzzAdmission.idle, fuzzAdmission.busy} {
			if n := s.Archive().Len(); n > 8 {
				t.Fatalf("archive grew to %d past cap 8", n)
			}
		}
	})
}
