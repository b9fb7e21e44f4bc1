// Package hivenet is the runnable realization of the paper's
// architecture: a cloud service and an edge agent speaking
// internal/proto over TCP.
//
// The server plays the paper's cloud role: it assigns connecting hives
// to time slots (the allocator's job in Section VI), receives sensor
// reports and audio uploads, executes the queen-detection model on
// uploads, and keeps the energy ledger of its own idle/receive/execute
// bursts using the calibrated power models. The agent plays the edge
// role: it collects a cycle's data, runs the model locally or uploads
// the audio depending on its placement, and keeps the edge ledger.
package hivenet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beesim/internal/audio"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/power"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/store"
	"beesim/internal/units"
)

// AdmissionConfig bounds what a server accepts before it starts
// shedding load. The zero value admits everything (the pre-admission
// behavior); production fleets should set every bound so a retry storm
// degrades into typed rejections instead of unbounded queues.
type AdmissionConfig struct {
	// MaxSessions caps concurrently connected sessions. A Hello beyond
	// the cap is answered with a TypeReject (code "server_full") and the
	// connection is closed. 0 = unlimited.
	MaxSessions int
	// MaxInflightUploads caps audio uploads being handled at once
	// across all sessions. An upload beyond the budget is answered with
	// a TypeReject (code "over_capacity") and the session stays open so
	// the client can back off and retry. 0 = unlimited.
	MaxInflightUploads int
	// MaxArchiveRecords caps the archive's resident index; beyond it
	// the oldest records are shed (counted by
	// hivenet_archive_shed_total). 0 = unbounded.
	MaxArchiveRecords int
	// UploadStall injects a real per-upload handling delay — a stress
	// and test knob that stands in for heavier inference models so a
	// small fleet can saturate the inflight budget deterministically.
	UploadStall time.Duration
}

// ServerConfig shapes the cloud service.
type ServerConfig struct {
	// Admission bounds sessions, inflight uploads and archive growth;
	// the zero value admits everything.
	Admission AdmissionConfig
	// MaxParallel is the slot capacity (clients per time slot).
	MaxParallel int
	// Slots is the number of time slots per cycle.
	Slots int
	// TrainCorpus is the number of synthetic clips used to train the
	// server's queen-detection model at startup.
	TrainCorpus int
	// ClipSeconds is the training clip length.
	ClipSeconds float64
	// Seed drives training determinism.
	Seed uint64
	// Logf, when non-nil, receives server logs.
	Logf func(format string, args ...any)
	// ArchivePath, when non-empty, persists every report and verdict to
	// a file-backed store (the paper's "remote data storage"); empty uses
	// an in-memory archive.
	ArchivePath string
	// Metrics, when non-nil, receives the server's session/report/upload
	// counters, slot gauges and energy totals, and enables the
	// dashboard's /metrics and /api/metrics snapshot endpoints.
	Metrics *obs.Registry
	// Ledger, when non-nil, records each upload's receive+execute burst
	// as attribution-only consume entries keyed by the upload's own
	// (virtual) timestamp and hive ID, and enables the dashboard's
	// /api/ledger endpoint. The entries carry no store: the server is
	// grid-powered, so they never enter a battery conservation balance.
	Ledger *ledger.Ledger
	// Tracer, when non-nil, records a handler span per audio upload,
	// joined into the uploading agent's trace via the frame's W3C
	// traceparent, and enables the dashboard's /api/trace/{id} and
	// /api/slowest endpoints. Spans are keyed by the upload's virtual
	// timestamp, so traces from deterministic campaigns stay
	// reproducible.
	Tracer *obs.Tracer
}

// Metric names emitted by an instrumented server.
const (
	MetricSessions     = "hivenet_sessions_total"
	MetricReports      = "hivenet_reports_total"
	MetricUploads      = "hivenet_uploads_total"
	MetricSessionErrs  = "hivenet_session_errors_total"
	MetricSlotAssigns  = "hivenet_slot_assignments_total"
	MetricSlotRejects  = "hivenet_slot_rejections_total"
	MetricBurstJ       = "hivenet_burst_energy_j_total"
	MetricClientsLive  = "hivenet_clients_connected"
	MetricHTTPInFlight = "hivenet_http_in_flight"
	MetricHTTPRequests = "hivenet_http_requests_total"
	MetricHTTPSeconds  = "hivenet_http_request_seconds"
	// MetricUploadHandleSeconds distributes the server-side handling
	// burst (receive + execute) per audio upload.
	MetricUploadHandleSeconds = "hivenet_upload_handle_seconds"
	// MetricUploadE2ESeconds distributes the end-to-end upload latency
	// seen by the server: the session's last sensor-report (wake-up)
	// timestamp through handling done. Retried uploads arrive with
	// shifted timestamps, so radio attempts and backoff show up here;
	// its exemplars feed the dashboard's slowest-uploads panel.
	MetricUploadE2ESeconds = "hivenet_upload_e2e_seconds"
	// MetricAdmissionRejects counts typed admission rejections (session
	// cap and inflight-budget 429s). A reject is never counted as a
	// delivered upload.
	MetricAdmissionRejects = "hivenet_admission_rejects_total"
	// MetricArchiveShed counts archive records shed by the
	// bounded-memory ingestion cap.
	MetricArchiveShed = "hivenet_archive_shed_total"
	// MetricInflightUploads gauges uploads being handled right now.
	MetricInflightUploads = "hivenet_inflight_uploads"
	// MetricQueueDepth distributes the inflight-upload occupancy seen
	// by each arriving upload (admitted or rejected) — the server-side
	// queue-depth signal capacity planning reads.
	MetricQueueDepth = "hivenet_queue_depth"
)

// DefaultServerConfig mirrors the paper's Figure-6 setting with a small
// training corpus.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		MaxParallel: 10,
		Slots:       18,
		TrainCorpus: 60,
		ClipSeconds: 1,
		Seed:        1,
	}
}

// Server is the cloud service.
type Server struct {
	cfg      ServerConfig
	ln       net.Listener
	detector *queendetect.SVMResult
	cloud    power.Cloud
	archive  *store.Store

	mu       sync.Mutex
	nextSlot int
	slotLoad []int
	sessions int
	reports  int
	uploads  int
	rejects  int
	energy   units.Joules // receive+execute bursts above idle
	closed   bool
	wg       sync.WaitGroup
	started  time.Time

	// Admission state: lock-free so the reject fast path costs two
	// atomic ops under storm load.
	liveSessions atomic.Int64
	inflight     atomic.Int64
	shedSeen     atomic.Int64

	// Observability probes; nil-safe no-ops when cfg.Metrics is nil.
	mSessions     *obs.Counter
	mReports      *obs.Counter
	mUploads      *obs.Counter
	mSessionErrs  *obs.Counter
	mSlotAssigns  *obs.Counter
	mSlotRejects  *obs.Counter
	mBurstJ       *obs.Counter
	gClients      *obs.Gauge
	hUploadHandle *obs.Histogram
	hUploadE2E    *obs.Histogram
	mAdmRejects   *obs.Counter
	mArchiveShed  *obs.Counter
	gInflight     *obs.Gauge
	hQueueDepth   *obs.Histogram
}

// NewServer trains the detection model and binds a listener on addr
// (use "127.0.0.1:0" for tests).
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.MaxParallel <= 0 || cfg.Slots <= 0 {
		return nil, errors.New("hivenet: non-positive slot shape")
	}
	if cfg.TrainCorpus < 8 {
		return nil, errors.New("hivenet: training corpus too small")
	}
	detector, err := trainedDetector(cfg)
	if err != nil {
		return nil, err
	}
	archive := store.OpenMemory()
	if cfg.ArchivePath != "" {
		archive, err = store.Open(cfg.ArchivePath)
		if err != nil {
			return nil, fmt.Errorf("hivenet: opening archive: %w", err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if cfg.ArchivePath != "" {
			if cerr := archive.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("hivenet: closing archive: %w", cerr))
			}
		}
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		detector: detector,
		cloud:    power.DefaultCloud(),
		archive:  archive,
		slotLoad: make([]int, cfg.Slots),
		started:  time.Now(), //beelint:allow walltime real service uptime anchor for the idle-energy stat; ledger entries use upload timestamps

		mSessions:    cfg.Metrics.Counter(MetricSessions),
		mReports:     cfg.Metrics.Counter(MetricReports),
		mUploads:     cfg.Metrics.Counter(MetricUploads),
		mSessionErrs: cfg.Metrics.Counter(MetricSessionErrs),
		mSlotAssigns: cfg.Metrics.Counter(MetricSlotAssigns),
		mSlotRejects: cfg.Metrics.Counter(MetricSlotRejects),
		mBurstJ:      cfg.Metrics.Counter(MetricBurstJ),
		gClients:     cfg.Metrics.Gauge(MetricClientsLive),

		hUploadHandle: cfg.Metrics.Histogram(MetricUploadHandleSeconds),
		hUploadE2E:    cfg.Metrics.Histogram(MetricUploadE2ESeconds),
		mAdmRejects:   cfg.Metrics.Counter(MetricAdmissionRejects),
		mArchiveShed:  cfg.Metrics.Counter(MetricArchiveShed),
		gInflight:     cfg.Metrics.Gauge(MetricInflightUploads),
		hQueueDepth:   cfg.Metrics.Histogram(MetricQueueDepth),
	}
	if cfg.Admission.MaxArchiveRecords > 0 {
		s.archive.SetCap(cfg.Admission.MaxArchiveRecords)
	}
	return s, nil
}

// detectorKey names a trained detector: NewServer's training is a pure
// function of these three config fields.
type detectorKey struct {
	seed        uint64
	trainCorpus int
	clipSeconds float64
}

var (
	detectorMu sync.Mutex
	detectors  = map[detectorKey]*queendetect.SVMResult{}
)

// trainedDetector synthesizes the training corpus and trains the SVM on
// the first call for a (Seed, TrainCorpus, ClipSeconds) triple, and
// returns that detector on every later call: servers only read it, so
// shards and restarts in one process share it. A failed training is
// not stored.
func trainedDetector(cfg ServerConfig) (*queendetect.SVMResult, error) {
	key := detectorKey{seed: cfg.Seed, trainCorpus: cfg.TrainCorpus, clipSeconds: cfg.ClipSeconds}
	detectorMu.Lock()
	defer detectorMu.Unlock()
	if d, ok := detectors[key]; ok {
		return d, nil
	}
	corpus, err := audio.Corpus(audio.Config{
		SampleRate: audio.SampleRate,
		Seconds:    cfg.ClipSeconds,
		Seed:       cfg.Seed,
	}, cfg.TrainCorpus)
	if err != nil {
		return nil, err
	}
	d, err := queendetect.TrainSVM(corpus, audio.SampleRate, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("hivenet: training detector: %w", err)
	}
	detectors[key] = d
	return d, nil
}

// Metrics returns the registry the server was configured with (nil when
// observability is disabled).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Archive exposes the server's data store for queries.
func (s *Server) Archive() *store.Store { return s.archive }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DetectorAccuracy returns the held-out accuracy of the model the server
// serves.
func (s *Server) DetectorAccuracy() float64 { return s.detector.Metrics.Accuracy }

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.gClients.Add(1)
			defer s.gClients.Add(-1)
			if err := s.handle(conn); err != nil && err != io.EOF {
				s.mSessionErrs.Inc()
				s.logf("session error: %v", err)
			}
		}()
	}
}

// Close stops the listener and waits for in-flight sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if cerr := s.archive.Close(); err == nil {
		err = cerr
	}
	return err
}

// archiveResult stores a verdict, logging rather than failing the
// session on archive errors.
func (s *Server) archiveResult(res proto.Result) {
	queen := 0.0
	if res.QueenPresent {
		queen = 1
	}
	if err := s.archive.Append(store.Record{
		Hive: res.HiveID,
		Time: res.Time,
		Kind: store.KindResult,
		Fields: map[string]float64{
			"queen_present": queen,
			"confidence":    res.Confidence,
		},
		Text: map[string]string{"computed_at": res.ComputedAt},
	}); err != nil {
		s.logf("archive: %v", err)
	}
	s.syncShed()
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Sessions int
	Reports  int
	Uploads  int
	// Rejects counts typed admission rejections (session cap and
	// inflight budget). Rejected uploads are never counted in Uploads.
	Rejects int
	// ArchiveShed counts records shed by the bounded-memory archive cap.
	ArchiveShed int
	// BurstEnergy is the above-idle receive/execute energy modeled for
	// the traffic served so far.
	BurstEnergy units.Joules
	// IdleEnergy is the modeled idle baseline since startup.
	IdleEnergy units.Joules
}

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	shed := s.archive.Evicted()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Sessions:    s.sessions,
		Reports:     s.reports,
		Uploads:     s.uploads,
		Rejects:     s.rejects,
		ArchiveShed: shed,
		BurstEnergy: s.energy,
		IdleEnergy:  s.cloud.IdlePower.Energy(time.Since(s.started)), //beelint:allow walltime idle baseline of the live grid-powered service; not part of any conservation balance
	}
}

// noteReject counts one typed admission rejection.
func (s *Server) noteReject() {
	s.mu.Lock()
	s.rejects++
	s.mu.Unlock()
	s.mAdmRejects.Inc()
}

// syncShed folds newly shed archive records into the shed counter.
// Called after archive appends; serialized through shedSeen so
// concurrent sessions never double-count.
func (s *Server) syncShed() {
	ev := int64(s.archive.Evicted())
	for {
		prev := s.shedSeen.Load()
		if ev <= prev {
			return
		}
		if s.shedSeen.CompareAndSwap(prev, ev) {
			s.mArchiveShed.Add(float64(ev - prev))
			return
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) handle(conn net.Conn) error {
	defer conn.Close()

	// Session opening: hello -> welcome with a slot assignment.
	f, err := proto.Decode(conn)
	if err != nil {
		return err
	}
	var hello proto.Hello
	if err := f.Unmarshal(proto.TypeHello, &hello); err != nil {
		_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
		return err
	}
	// Session admission: a Hello beyond the cap gets a typed reject and
	// the connection closes. The reject itself is not a session error —
	// backpressure is the server working as designed — but a failed
	// reject write is.
	if maxS := s.cfg.Admission.MaxSessions; maxS > 0 {
		if s.liveSessions.Add(1) > int64(maxS) {
			s.liveSessions.Add(-1)
			s.noteReject()
			return proto.Encode(conn, proto.TypeReject, proto.RejectBody{
				Code:    proto.RejectServerFull,
				Message: "session cap reached",
			}, nil)
		}
		defer s.liveSessions.Add(-1)
	}
	slot, err := s.assignSlot()
	if err != nil {
		_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
		return err
	}
	s.mu.Lock()
	s.sessions++
	s.mu.Unlock()
	s.mSessions.Inc()
	if err := proto.Encode(conn, proto.TypeWelcome,
		proto.Welcome{Slot: slot, MaxParallel: s.cfg.MaxParallel}, nil); err != nil {
		return err
	}
	s.logf("hive %s joined slot %d", hello.HiveID, slot)

	// lastWake remembers the session's most recent sensor-report
	// timestamp — the wake-up instant — so an upload's end-to-end
	// latency (wake through handling, radio retries included) can be
	// measured from the shifted upload timestamp.
	var lastWake time.Time
	for {
		f, err := proto.Decode(conn)
		if err != nil {
			if err == io.EOF {
				return nil // agent dropped without bye; tolerated
			}
			return err
		}
		switch f.Type {
		case proto.TypeSensorReport:
			var r proto.SensorReport
			if err := f.Unmarshal(proto.TypeSensorReport, &r); err != nil {
				return err
			}
			if err := s.archive.Append(store.Record{
				Hive: r.HiveID,
				Time: r.Time,
				Kind: store.KindSensor,
				Fields: map[string]float64{
					"inside_temp_c":  r.InsideTempC,
					"inside_rh":      r.InsideRH,
					"outside_temp_c": r.OutsideTempC,
					"battery_soc":    r.BatterySoC,
				},
			}); err != nil {
				s.logf("archive: %v", err)
			}
			s.syncShed()
			s.mu.Lock()
			s.reports++
			s.mu.Unlock()
			s.mReports.Inc()
			lastWake = r.Time
			if err := proto.Encode(conn, proto.TypeAck, nil, nil); err != nil {
				return err
			}

		case proto.TypeAudioUpload:
			var up proto.AudioUpload
			if err := f.Unmarshal(proto.TypeAudioUpload, &up); err != nil {
				return err
			}
			admitted, err := s.admitUpload(conn)
			if err != nil {
				return err
			}
			if !admitted {
				continue // typed reject sent; the session stays open
			}
			if err := s.handleUpload(conn, f, up, lastWake); err != nil {
				return err
			}

		case proto.TypeResult:
			// An edge-computed verdict being archived.
			var res proto.Result
			if err := f.Unmarshal(proto.TypeResult, &res); err != nil {
				return err
			}
			s.archiveResult(res)
			s.mu.Lock()
			s.reports++
			s.mu.Unlock()
			s.mReports.Inc()
			if err := proto.Encode(conn, proto.TypeAck, nil, nil); err != nil {
				return err
			}

		case proto.TypeBye:
			_ = proto.Encode(conn, proto.TypeAck, nil, nil)
			return nil

		default:
			err := fmt.Errorf("hivenet: unexpected %v frame", f.Type)
			_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
			return err
		}
	}
}

// admitUpload applies the inflight-upload budget. It observes the
// occupancy every arriving upload sees (the queue-depth signal), then
// either takes a budget slot (admitted=true; the caller must release it
// through handleUpload) or writes a typed over-capacity reject
// (admitted=false). The returned error is a failed reject write — the
// only way admission itself can fail a session.
func (s *Server) admitUpload(conn net.Conn) (admitted bool, err error) {
	s.hQueueDepth.Observe(float64(s.inflight.Load()))
	if b := s.cfg.Admission.MaxInflightUploads; b > 0 && s.inflight.Add(1) > int64(b) {
		s.inflight.Add(-1)
		s.noteReject()
		return false, proto.Encode(conn, proto.TypeReject, proto.RejectBody{
			Code:    proto.RejectOverCapacity,
			Message: "inflight upload budget exhausted",
		}, nil)
	} else if b <= 0 {
		s.inflight.Add(1)
	}
	s.gInflight.Add(1)
	return true, nil
}

// handleUpload runs one admitted audio upload to completion: decode,
// infer, account, archive, reply. It always releases the inflight
// budget slot taken by admitUpload.
func (s *Server) handleUpload(conn net.Conn, f proto.Frame, up proto.AudioUpload, lastWake time.Time) error {
	defer func() {
		s.inflight.Add(-1)
		s.gInflight.Add(-1)
	}()
	if stall := s.cfg.Admission.UploadStall; stall > 0 {
		time.Sleep(stall) //beelint:allow walltime stress/test knob standing in for heavier inference on the live server
	}
	samples, err := proto.PCMDecode(f.Raw)
	if err != nil {
		_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
		return err
	}
	if len(samples) != up.Samples {
		err := fmt.Errorf("hivenet: declared %d samples, got %d", up.Samples, len(samples))
		_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
		return err
	}
	queen, confidence, err := s.infer(samples, up.SampleRate)
	if err != nil {
		_ = proto.Encode(conn, proto.TypeError, proto.ErrorBody{Message: err.Error()}, nil)
		return err
	}
	// Join the agent's trace: the frame's traceparent names the
	// upload span, and the handler span becomes its child. A
	// missing or malformed header degrades to an untraced
	// handling (never a session error).
	var srvSC *obs.SpanContext
	if up.Traceparent != "" {
		if pc, perr := obs.ParseTraceparent(up.Traceparent); perr == nil {
			srvSC = pc.Child("server", 0)
		}
	}
	burstD, burstJ := s.accountUpload(up.HiveID, up.Time)
	if srvSC != nil {
		s.cfg.Tracer.SpanCtx(srvSC, "server handle upload", "server",
			obs.TidServer, up.Time, burstD, map[string]any{
				"hive":   up.HiveID,
				"queen":  queen,
				"joules": float64(burstJ),
			})
	}
	s.hUploadHandle.ObserveExemplar(burstD.Seconds(), srvSC)
	if !lastWake.IsZero() && up.Time.After(lastWake) {
		s.hUploadE2E.ObserveExemplar(up.Time.Sub(lastWake).Seconds()+burstD.Seconds(), srvSC)
	} else {
		s.hUploadE2E.ObserveExemplar(burstD.Seconds(), srvSC)
	}
	s.mu.Lock()
	s.uploads++
	s.mu.Unlock()
	s.mUploads.Inc()
	res := proto.Result{
		HiveID:       up.HiveID,
		Time:         up.Time,
		QueenPresent: queen,
		Confidence:   confidence,
		ComputedAt:   "cloud",
		Traceparent:  srvSC.Traceparent(),
	}
	s.archiveResult(res)
	return proto.Encode(conn, proto.TypeResult, res, nil)
}

// assignSlot implements the paper's sequential filling policy over the
// live session set.
func (s *Server) assignSlot() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.cfg.Slots; i++ {
		idx := (s.nextSlot + i) % s.cfg.Slots
		if s.slotLoad[idx] < s.cfg.MaxParallel {
			s.slotLoad[idx]++
			s.mSlotAssigns.Inc()
			if s.slotLoad[idx] == s.cfg.MaxParallel {
				s.nextSlot = (idx + 1) % s.cfg.Slots
			} else {
				s.nextSlot = idx
			}
			return idx, nil
		}
	}
	s.mSlotRejects.Inc()
	return 0, errors.New("hivenet: server full (all slots at capacity)")
}

// infer runs the queen detector on an uploaded clip. Clips must come at
// the rate the detector was trained at, which also bounds the front-end
// plans the process memoizes to one.
func (s *Server) infer(samples []float64, sampleRate int) (bool, float64, error) {
	if sampleRate != audio.SampleRate {
		return false, 0, fmt.Errorf("hivenet: sample rate %d Hz, detector trained at %d Hz", sampleRate, audio.SampleRate)
	}
	queen, err := s.detector.Predict(samples, sampleRate)
	if err != nil {
		return false, 0, err
	}
	// Confidence from the decision margin through a squashing map.
	v, err := queendetect.VectorFeatures(samples, sampleRate)
	if err != nil {
		return false, 0, err
	}
	margin := s.detector.Model.Decision(s.detector.Scaler.Transform(v))
	if margin < 0 {
		margin = -margin
	}
	confidence := margin / (1 + margin)
	return queen, confidence, nil
}

// accountUpload charges the energy books for one receive+execute burst
// using the calibrated cloud model (Table II's rows), attributing the
// entries to the uploading hive at its own timestamp. It returns the
// burst's duration and above-idle energy for the handler span.
func (s *Server) accountUpload(hive string, at time.Time) (time.Duration, units.Joules) {
	recv := s.cloud.Receive()
	exec := s.cloud.ExecSVM()
	recvExtra := (recv.Power() - s.cloud.IdlePower).Energy(recv.Duration)
	execExtra := (exec.Power() - s.cloud.IdlePower).Energy(exec.Duration)
	s.mu.Lock()
	s.energy += recvExtra + execExtra
	s.mu.Unlock()
	s.mBurstJ.Add(float64(recvExtra + execExtra))
	if s.cfg.Ledger != nil {
		s.cfg.Ledger.Append(ledger.Entry{
			T: at, Hive: hive, Device: "cloud", Component: "server",
			Task: "Receive audio", Dir: ledger.Consume,
			Joules: float64(recvExtra), Seconds: recv.Duration.Seconds(),
		})
		s.cfg.Ledger.Append(ledger.Entry{
			T: at, Hive: hive, Device: "cloud", Component: "server",
			Task: exec.Name, Dir: ledger.Consume,
			Joules: float64(execExtra), Seconds: exec.Duration.Seconds(),
		})
	}
	return recv.Duration + exec.Duration, recvExtra + execExtra
}

// Ledger returns the ledger the server was configured with (nil when
// disabled).
func (s *Server) Ledger() *ledger.Ledger { return s.cfg.Ledger }

// Tracer returns the tracer the server was configured with (nil when
// tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// TraceEvents returns every recorded event tagged with the given trace
// ID, in recording order. When agents share the server's tracer (the
// in-process campaign setup) this is the full edge-to-cloud chain;
// otherwise it is the server-side slice. ok is false when tracing is
// disabled or the ID is unknown.
func (s *Server) TraceEvents(id string) ([]obs.TraceEvent, bool) {
	if s.cfg.Tracer == nil || id == "" {
		return nil, false
	}
	var out []obs.TraceEvent
	for _, e := range s.cfg.Tracer.Events() {
		if e.Args == nil {
			continue
		}
		if tid, _ := e.Args[obs.ArgTraceID].(string); tid == id {
			out = append(out, e)
		}
	}
	return out, len(out) > 0
}

// SlowestUploads returns up to n end-to-end upload-latency exemplars,
// slowest first (ties toward the smaller trace ID) — the dashboard's
// "which uploads hurt" panel. Empty when metrics or tracing are off.
func (s *Server) SlowestUploads(n int) []obs.ExemplarSnap {
	ex := s.hUploadE2E.Exemplars()
	sort.Slice(ex, func(i, j int) bool {
		if ex[i].Value != ex[j].Value {
			return ex[i].Value > ex[j].Value
		}
		return ex[i].TraceID < ex[j].TraceID
	})
	if n >= 0 && len(ex) > n {
		ex = ex[:n]
	}
	return ex
}
