package hivenet

import (
	"errors"
	"fmt"
	"net"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hive"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/power"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/routine"
	"beesim/internal/units"
)

// ErrUploadDropped reports that the modeled uplink exhausted its retry
// budget before delivering the cycle's audio upload. The session stays
// usable; the caller decides whether to retry next wake-up.
var ErrUploadDropped = errors.New("hivenet: upload dropped: uplink retry budget exhausted")

// rejectError is the client-side face of a TypeReject frame: the
// server's admission control refused the request. For code
// "over_capacity" the session stays open and the client should back
// off and retry; for "server_full" the server closed the connection.
type rejectError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *rejectError) Error() string {
	return fmt.Sprintf("hivenet: rejected (%s): %s", e.Code, e.Message)
}

// newRejectError converts a decoded TypeReject frame into its typed
// error.
func newRejectError(f proto.Frame) error {
	var body proto.RejectBody
	if err := f.Unmarshal(proto.TypeReject, &body); err != nil {
		return err
	}
	return &rejectError{Code: body.Code, Message: body.Message}
}

// AgentConfig shapes one edge agent.
type AgentConfig struct {
	HiveID string
	// Placement selects the scenario: EdgeOnly runs the model locally
	// and archives results; EdgeCloud uploads audio for cloud inference.
	Placement routine.Placement
	// WakePeriod is reported to the server for slot planning.
	WakePeriod time.Duration
	// ClipSeconds is the audio capture length per cycle.
	ClipSeconds float64
	// Seed drives the synthetic colony audio.
	Seed uint64
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// Tracer, when non-nil, records each cycle's edge tasks as tagged
	// spans of a per-wake-up trace whose ID is a pure hash of
	// (Seed, HiveID, wake index); the upload frames then carry the
	// trace as a W3C traceparent so the server joins its handler spans
	// into the same trace.
	Tracer *obs.Tracer
	// Uplink, when non-nil, models the radio episode of each EdgeCloud
	// upload (attempts, backoff, retry energy) in virtual time. A
	// fault-armed link can exhaust its budget, which surfaces as
	// ErrUploadDropped; a delivered episode shifts the upload's
	// timestamp by the episode's total duration so server-side
	// accounting sees the queue and retry delay.
	Uplink *netsim.Link
}

// DefaultAgentConfig returns an edge+cloud agent at the paper's cadence.
func DefaultAgentConfig(hiveID string) AgentConfig {
	return AgentConfig{
		HiveID:      hiveID,
		Placement:   routine.EdgeCloud,
		WakePeriod:  5 * time.Minute,
		ClipSeconds: 1,
		Seed:        1,
		DialTimeout: 5 * time.Second,
	}
}

// Agent is a connected smart beehive.
type Agent struct {
	cfg      AgentConfig
	conn     net.Conn
	synth    *audio.Synth
	detector *queendetect.SVMResult // only for the edge placement
	slot     int

	cycles     int
	wakes      int
	edgeEnergy units.Joules
	lastTrace  string
}

// Dial connects an agent to the cloud service and completes the session
// handshake. For the EdgeOnly placement the agent also trains its local
// model (the paper trains in the cloud and ships the model; here the
// synthetic corpus makes local training equivalent).
func Dial(addr string, cfg AgentConfig) (*Agent, error) {
	if cfg.HiveID == "" {
		return nil, errors.New("hivenet: empty hive id")
	}
	if cfg.ClipSeconds <= 0 {
		return nil, errors.New("hivenet: non-positive clip length")
	}
	synth, err := audio.NewSynth(audio.Config{
		SampleRate: audio.SampleRate,
		Seconds:    cfg.ClipSeconds,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, synth: synth}

	if cfg.Placement == routine.EdgeOnly {
		corpus, err := audio.Corpus(audio.Config{
			SampleRate: audio.SampleRate,
			Seconds:    cfg.ClipSeconds,
			Seed:       cfg.Seed + 1,
		}, 60)
		if err != nil {
			return nil, err
		}
		a.detector, err = queendetect.TrainSVM(corpus, audio.SampleRate, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("hivenet: training edge model: %w", err)
		}
	}

	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	a.conn = conn
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID:            cfg.HiveID,
		WakePeriodSeconds: cfg.WakePeriod.Seconds(),
		Version:           1,
	}, nil); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := proto.Decode(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.Type == proto.TypeReject {
		err := newRejectError(f)
		conn.Close()
		return nil, err
	}
	if f.Type == proto.TypeError {
		var e proto.ErrorBody
		_ = f.Unmarshal(proto.TypeError, &e)
		conn.Close()
		return nil, fmt.Errorf("hivenet: server refused: %s", e.Message)
	}
	var welcome proto.Welcome
	if err := f.Unmarshal(proto.TypeWelcome, &welcome); err != nil {
		conn.Close()
		return nil, err
	}
	a.slot = welcome.Slot
	return a, nil
}

// Slot returns the server-assigned time slot.
func (a *Agent) Slot() int { return a.slot }

// Cycles returns the number of completed cycles.
func (a *Agent) Cycles() int { return a.cycles }

// EdgeEnergy returns the modeled edge energy spent so far (active tasks,
// per the calibrated tables; sleep is not included since wall-clock time
// in tests is compressed).
func (a *Agent) EdgeEnergy() units.Joules { return a.edgeEnergy }

// LastTraceID returns the trace ID of the most recent wake-up ("" when
// the agent runs untraced or has not cycled yet). Use it to fetch the
// stitched trace from the dashboard's /api/trace/{id} endpoint.
func (a *Agent) LastTraceID() string { return a.lastTrace }

// RunCycle performs one wake-up cycle against the given ground-truth
// colony state: collect (synthesize the clip and a sensor report), then
// infer locally or upload, then "shut down".
func (a *Agent) RunCycle(state hive.QueenState, activity float64, now time.Time) (proto.Result, error) {
	if a.conn == nil {
		return proto.Result{}, errors.New("hivenet: agent closed")
	}
	// Root span of this wake-up's causal trace. The index counts every
	// wake attempt (dropped uploads included) so each wake-up owns a
	// distinct trace ID; sc stays nil on untraced agents, keeping the
	// wire frames byte-identical to earlier releases (omitempty).
	var sc *obs.SpanContext
	if a.cfg.Tracer != nil || a.cfg.Uplink != nil {
		sc = obs.NewRootSpan(a.cfg.Seed, a.cfg.HiveID, uint64(a.wakes))
	}
	a.wakes++
	pi := power.DefaultPi3B()
	clip := a.synth.Clip(state, activity)
	collect := pi.WakeAndCollect()
	a.edgeEnergy += collect.Energy
	// upEnd tracks when the modeled radio episode delivered (equal to
	// now when no uplink is modeled); the root span covers through the
	// later of the edge timeline and the radio episode.
	upEnd := now
	// Edge task spans stack on a virtual timeline from now; edgeAt
	// advances as the routine progresses.
	edgeAt := now
	edgeIdx := uint64(0)
	edgeSpan := func(t power.Task) {
		if sc != nil {
			a.cfg.Tracer.SpanCtx(sc.Child("edge", edgeIdx), t.Name, "edge",
				obs.TidRoutine, edgeAt, t.Duration, map[string]any{"joules": float64(t.Energy)})
		}
		edgeAt = edgeAt.Add(t.Duration)
		edgeIdx++
	}
	edgeSpan(collect)

	// The scalar sensor report goes up in both placements.
	report := proto.SensorReport{
		HiveID:      a.cfg.HiveID,
		Time:        now,
		InsideTempC: 34.8,
		InsideRH:    0.6,
		BatterySoC:  0.8,
		Traceparent: sc.Traceparent(),
	}
	if err := proto.Encode(a.conn, proto.TypeSensorReport, report, nil); err != nil {
		return proto.Result{}, err
	}
	if err := a.expectAck(); err != nil {
		return proto.Result{}, err
	}

	var result proto.Result
	switch a.cfg.Placement {
	case routine.EdgeOnly:
		queen, err := a.detector.Predict(clip, audio.SampleRate)
		if err != nil {
			return proto.Result{}, err
		}
		infer, sendRes := pi.InferSVM(), pi.SendResults()
		a.edgeEnergy += infer.Energy + sendRes.Energy
		edgeSpan(infer)
		edgeSpan(sendRes)
		result = proto.Result{
			HiveID:       a.cfg.HiveID,
			Time:         now,
			QueenPresent: queen,
			ComputedAt:   "edge",
			Traceparent:  sc.Traceparent(),
		}
		if err := proto.Encode(a.conn, proto.TypeResult, result, nil); err != nil {
			return proto.Result{}, err
		}
		if err := a.expectAck(); err != nil {
			return proto.Result{}, err
		}

	case routine.EdgeCloud:
		sendTask := pi.SendAudio()
		a.edgeEnergy += sendTask.Energy
		edgeSpan(sendTask)
		// The upload span is the parent of the radio attempts and of
		// the server's handler span (joined via the traceparent).
		upSC := sc.Child("upload", 0)
		up := proto.AudioUpload{
			HiveID:      a.cfg.HiveID,
			Time:        now,
			SampleRate:  audio.SampleRate,
			Samples:     len(clip),
			Traceparent: upSC.Traceparent(),
		}
		if a.cfg.Uplink != nil {
			// Model the radio episode in virtual time: attempts, backoff
			// and retry energy. A delivered episode delays the upload's
			// effective timestamp by its total duration, so server-side
			// accounting (and the handler span) sees the retry latency.
			out := a.cfg.Uplink.SendSpan(now, netsim.Bytes(2*len(clip)), upSC)
			a.edgeEnergy += out.RetryEnergy
			if !out.Delivered {
				a.lastTrace = sc.TraceHex()
				return proto.Result{}, ErrUploadDropped
			}
			up.Time = now.Add(out.TotalDuration)
			upEnd = up.Time
		}
		if err := proto.Encode(a.conn, proto.TypeAudioUpload, up, proto.PCMEncode(clip)); err != nil {
			return proto.Result{}, err
		}
		f, err := proto.Decode(a.conn)
		if err != nil {
			return proto.Result{}, err
		}
		if f.Type == proto.TypeReject {
			// Typed backpressure: the session stays open; surface the
			// rejection so the caller can back off and retry.
			a.lastTrace = sc.TraceHex()
			return proto.Result{}, newRejectError(f)
		}
		if f.Type == proto.TypeError {
			var e proto.ErrorBody
			_ = f.Unmarshal(proto.TypeError, &e)
			return proto.Result{}, fmt.Errorf("hivenet: server error: %s", e.Message)
		}
		if err := f.Unmarshal(proto.TypeResult, &result); err != nil {
			return proto.Result{}, err
		}

	default:
		return proto.Result{}, fmt.Errorf("hivenet: unsupported placement %v", a.cfg.Placement)
	}

	shut := pi.Shutdown()
	a.edgeEnergy += shut.Energy
	edgeSpan(shut)
	if sc != nil && a.cfg.Tracer != nil {
		end := edgeAt
		if upEnd.After(end) {
			end = upEnd
		}
		a.cfg.Tracer.SpanCtx(sc, "wake-up cycle", "edge", obs.TidRoutine, now, end.Sub(now),
			map[string]any{"hive": a.cfg.HiveID})
	}
	a.cycles++
	a.lastTrace = sc.TraceHex()
	return result, nil
}

func (a *Agent) expectAck() error {
	f, err := proto.Decode(a.conn)
	if err != nil {
		return err
	}
	if f.Type == proto.TypeError {
		var e proto.ErrorBody
		_ = f.Unmarshal(proto.TypeError, &e)
		return fmt.Errorf("hivenet: server error: %s", e.Message)
	}
	if f.Type != proto.TypeAck {
		return fmt.Errorf("hivenet: expected ack, got %v", f.Type)
	}
	return nil
}

// Close says goodbye and releases the connection.
func (a *Agent) Close() error {
	if a.conn == nil {
		return nil
	}
	_ = proto.Encode(a.conn, proto.TypeBye, nil, nil)
	// Best effort: wait for the ack, then close either way.
	_ = a.conn.SetReadDeadline(time.Now().Add(time.Second)) //beelint:allow walltime read deadline on a real TCP socket
	_, _ = proto.Decode(a.conn)
	err := a.conn.Close()
	a.conn = nil
	return err
}
