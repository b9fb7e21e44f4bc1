package hivenet

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"beesim/internal/hive"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/slo"
	"beesim/internal/store"
)

func dashboardWithTraffic(t *testing.T) (*Dashboard, *Server) {
	t.Helper()
	s := startServer(t, DefaultServerConfig())
	agent, err := Dial(s.Addr(), DefaultAgentConfig("dash-1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	if _, err := agent.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	return NewDashboard(s), s
}

func TestDashboardStats(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["uploads"].(float64) != 1 {
		t.Fatalf("uploads = %v", body["uploads"])
	}
	if body["burst_energy_j"].(float64) <= 0 {
		t.Fatal("no burst energy reported")
	}
}

// TestDashboardHTTPServer serves the dashboard over loopback from its
// http.Server: both connection timeouts are armed, a request is
// answered, and Close ends Serve.
func TestDashboardHTTPServer(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.TrainCorpus = 16
	hs := NewDashboard(startServer(t, cfg)).HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts: read-header %v, idle %v; both must be positive", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestDashboardHives(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/hives", nil))
	var hives []string
	if err := json.Unmarshal(rec.Body.Bytes(), &hives); err != nil {
		t.Fatal(err)
	}
	if len(hives) != 1 || hives[0] != "dash-1" {
		t.Fatalf("hives = %v", hives)
	}
}

func TestDashboardRecords(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/api/records?hive=dash-1&kind=result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var records []store.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0].Fields["queen_present"] != 1 {
		t.Fatalf("verdict = %v", records[0].Fields)
	}
}

func TestDashboardRecordsValidation(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	cases := []string{
		"/api/records",                    // missing hive
		"/api/records?hive=x&kind=banana", // bad kind
		"/api/records?hive=x&hours=-1",    // bad hours
		"/api/records?hive=x&hours=zero",  // unparsable hours
	}
	for _, url := range cases {
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, rec.Code)
		}
	}
}

func TestDashboardIndexHTML(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"beesim cloud service", "dash-1", "queen present"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Unknown paths 404.
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec.Code)
	}
}

func TestDashboardMethodGuards(t *testing.T) {
	d, _ := dashboardWithTraffic(t)
	for _, url := range []string{"/api/stats", "/api/hives", "/api/records?hive=x"} {
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status = %d, want 405", url, rec.Code)
		}
	}
}

func TestDashboardLedgerEndpoint(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Ledger = ledger.New()
	s := startServer(t, cfg)
	agent, err := Dial(s.Addr(), DefaultAgentConfig("ledger-1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	at := time.Date(2023, 4, 10, 6, 0, 0, 0, time.UTC)
	if _, err := agent.RunCycle(hive.QueenPresent, 0.6, at); err != nil {
		t.Fatal(err)
	}
	d := NewDashboard(s)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/ledger", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	back, err := ledger.ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	entries := back.Entries()
	if len(entries) != 2 {
		t.Fatalf("ledger entries = %d, want receive+execute", len(entries))
	}
	var total float64
	for _, e := range entries {
		if e.Hive != "ledger-1" || e.Device != "cloud" || e.Store != "" || !e.T.Equal(at) {
			t.Fatalf("entry = %+v", e)
		}
		total += e.Joules
	}
	if got := float64(s.Stats().BurstEnergy); total != got {
		t.Fatalf("ledger burst %v J, stats %v J", total, got)
	}

	// Without a ledger the endpoint 404s.
	d2, _ := dashboardWithTraffic(t)
	rec2 := httptest.NewRecorder()
	d2.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/ledger", nil))
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("disabled ledger status = %d", rec2.Code)
	}
}

// TestDashboardSLO: /api/slo is 404 until armed, then evaluates the
// spec against the live registry (HTTP request-latency histograms
// feed a latency objective) and reports pass/fail as JSON with a 200
// either way.
func TestDashboardSLO(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Metrics = obs.NewRegistry()
	s := startServer(t, cfg)
	d := NewDashboard(s)

	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unarmed /api/slo status = %d", rec.Code)
	}

	// Generate one instrumented request so the stats histogram has a
	// sample, then bound its p99.
	d.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	d.SetSLO(slo.Spec{
		Name: "dash",
		Objectives: []slo.Objective{
			{Name: "stats latency", Kind: slo.KindLatency,
				Metric: MetricHTTPSeconds + ".stats", Quantile: 0.99, MaxSeconds: 30},
		},
	})
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/slo status = %d: %s", rec.Code, rec.Body.String())
	}
	var rep slo.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Spec != "dash" || len(rep.Results) != 1 || !rep.Results[0].Pass {
		t.Fatalf("report = %+v", rep)
	}

	// A breach is still a 200: the body, not the status, is the signal.
	d.SetSLO(slo.Spec{
		Name: "tight",
		Objectives: []slo.Objective{
			{Name: "stats latency", Kind: slo.KindLatency,
				Metric: MetricHTTPSeconds + ".stats", Quantile: 0.5, MaxSeconds: 1e-12},
		},
	})
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("breached /api/slo status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatalf("tight SLO must breach: %s", rec.Body.String())
	}
}
