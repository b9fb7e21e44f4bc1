// Socket-level fleet replay: real TCP, real frames, real admission
// rejects against live hivenet servers. The offered traffic (who
// connects, what bytes, which virtual timestamps) is the same
// deterministic schedule the planner simulates; only the measured
// wall-clock latencies vary run to run, and nothing here ever feeds a
// byte-compared artifact.
//
//beelint:allow walltime live socket replay measures the real stack; deadlines, latencies and backoff sleeps are wall-clock by design
package loadgen

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"beesim/internal/audio"
	"beesim/internal/faults"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/proto"
	"beesim/internal/rng"
)

// MetricUploadWallSeconds distributes the wall-clock round-trip each
// delivered upload took against the live server (send through Result).
const MetricUploadWallSeconds = "loadgen_upload_wall_seconds"

// saltClip derives each hive's audio clip noise.
const saltClip = 0x5c4ed01e0002

// RunOptions shape a socket replay.
type RunOptions struct {
	// Addrs are the live server endpoints, one per shard; hive h
	// talks to Addrs[h % len(Addrs)]. Required.
	Addrs []string
	// Dashboards are optional HTTP base URLs (parallel to Addrs, or a
	// single one for all shards) the schedule's read events hit with
	// GET /api/stats.
	Dashboards []string
	// Workers bounds concurrent hive sessions (0 = GOMAXPROCS).
	Workers int
	// SleepScale scales the retry policy's real backoff sleeps: 1
	// replays backoff in real time, 0 (default) retries immediately —
	// the virtual timestamps in the frames carry the canonical delay
	// either way.
	SleepScale float64
	// IOTimeout is the per-frame deadline guarding the soak against a
	// stuck server (default 30s).
	IOTimeout time.Duration
	// DialTimeout bounds connection setup (default 10s).
	DialTimeout time.Duration
}

// RunResult aggregates a replay. The accounting invariant Offered ==
// Delivered + Lost + Unattempted holds by construction: every
// scheduled upload either produced a Result frame, exhausted its
// retry budget, or never got a healthy session to run in.
type RunResult struct {
	Offered     int
	Delivered   int
	Lost        int
	Unattempted int
	// Rejected counts typed over-capacity rejects (attempt
	// granularity); RefusedSessions counts server_full Hello rejects.
	Rejected        int
	DroppedLink     int
	RefusedSessions int
	// FailedSessions counts hives whose session died on a protocol or
	// transport error; FirstErr keeps the first such error.
	FailedSessions int
	FirstErr       error
	Reads          int
	ReadErrors     int
	// Registry carries MetricUploadWallSeconds.
	Registry *obs.Registry
}

// hiveOutcome is one session's tallies, folded in hive order.
type hiveOutcome struct {
	offered, delivered, lost, unattempted int
	rejected, droppedLink                 int
	refused, failed                       bool
	reads, readErrors                     int
	err                                   error
}

// clipPCM builds hive h's deterministic audio payload: band-limited
// noise is enough to exercise the real decode + FFT + SVM path.
func clipPCM(spec LoadSpec, h int) ([]byte, int) {
	n := int(spec.ClipS * audio.SampleRate)
	src := rng.Stream(spec.Seed, saltClip+uint64(h))
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 0.2 * (2*src.Float64() - 1)
	}
	return proto.PCMEncode(samples), n
}

// sensorReport synthesizes wake w's scalar readings for hive h —
// plausible in-range values, deterministic per (hive, wake).
func sensorReport(spec LoadSpec, h, w int, at time.Time) proto.SensorReport {
	z := rng.StreamSeed(rng.StreamSeed(spec.Seed, saltClip), uint64(h)<<20|uint64(w))
	return proto.SensorReport{
		HiveID:       hiveID(h),
		Time:         at,
		InsideTempC:  34 + 2*u01(z),
		InsideRH:     55 + 10*u01(z>>7),
		OutsideTempC: 15 + 10*u01(z>>13),
		BatterySoC:   0.5 + 0.5*u01(z>>23),
	}
}

// Run replays the spec's schedule against live servers. It returns an
// error only for unusable options; per-hive transport failures are
// tallied in the result instead, so a soak can assert on them.
func Run(spec LoadSpec, evs []Event, opt RunOptions) (RunResult, error) {
	if len(opt.Addrs) == 0 {
		return RunResult{}, fmt.Errorf("loadgen: run needs at least one server address")
	}
	if opt.IOTimeout <= 0 {
		opt.IOTimeout = 30 * time.Second
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 10 * time.Second
	}
	inj, err := spec.Injector(CampaignStart)
	if err != nil {
		return RunResult{}, err
	}
	policy := spec.RetryPolicy()
	byHive := groupByHive(spec, evs)
	reg := obs.NewRegistry()
	hWall := reg.Histogram(MetricUploadWallSeconds)
	// Dedicated transport so the replay's keep-alive dashboard conns
	// are torn down when it returns — a soak must not leak fds.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	httpc := &http.Client{Timeout: opt.IOTimeout, Transport: tr}

	outs, err := parallel.Map(opt.Workers, spec.Hives, func(h int) (hiveOutcome, error) {
		return runHive(spec, byHive[h], h, opt, inj, policy, hWall, httpc), nil
	})
	if err != nil {
		return RunResult{}, err
	}

	res := RunResult{Registry: reg}
	for _, o := range outs {
		res.Offered += o.offered
		res.Delivered += o.delivered
		res.Lost += o.lost
		res.Unattempted += o.unattempted
		res.Rejected += o.rejected
		res.DroppedLink += o.droppedLink
		res.Reads += o.reads
		res.ReadErrors += o.readErrors
		if o.refused {
			res.RefusedSessions++
		}
		if o.failed {
			res.FailedSessions++
			if res.FirstErr == nil {
				res.FirstErr = o.err
			}
		}
	}
	return res, nil
}

// runHive drives one hive's whole session: dial, hello, then the
// hive's schedule in order. A transport or protocol failure abandons
// the session; the remaining uploads count as unattempted.
func runHive(spec LoadSpec, evs []Event, h int, opt RunOptions,
	inj *faults.Injector, policy faults.RetryPolicy,
	hWall *obs.Histogram, httpc *http.Client) hiveOutcome {
	var out hiveOutcome
	for _, ev := range evs {
		if ev.Kind == EventUpload {
			out.offered++
		}
	}
	if out.offered == 0 && len(evs) == 0 {
		return out
	}

	fail := func(err error) hiveOutcome {
		out.failed = true
		out.err = fmt.Errorf("loadgen: %s: %w", hiveID(h), err)
		out.unattempted = out.offered - out.delivered - out.lost
		return out
	}

	addr := opt.Addrs[h%len(opt.Addrs)]
	conn, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	deadline := func() { _ = conn.SetDeadline(time.Now().Add(opt.IOTimeout)) }

	deadline()
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID:            hiveID(h),
		WakePeriodSeconds: spec.WakePeriodS,
		Version:           1,
	}, nil); err != nil {
		return fail(err)
	}
	f, err := proto.Decode(conn)
	if err != nil {
		return fail(err)
	}
	switch f.Type {
	case proto.TypeWelcome:
	case proto.TypeReject:
		out.refused = true
		out.unattempted = out.offered
		return out
	default:
		return fail(fmt.Errorf("hello answered with %v", f.Type))
	}

	pcm, samples := clipPCM(spec, h)
	dash := ""
	if len(opt.Dashboards) == 1 {
		dash = opt.Dashboards[0]
	} else if len(opt.Dashboards) > 0 {
		dash = opt.Dashboards[h%len(opt.Dashboards)]
	}

	for _, ev := range evs {
		vt := CampaignStart.Add(ev.At)
		switch ev.Kind {
		case EventRead:
			if dash == "" {
				continue
			}
			resp, err := httpc.Get(dash + "/api/stats")
			if err != nil {
				out.readErrors++
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out.readErrors++
			} else {
				out.reads++
			}

		case EventUpload:
			deadline()
			if err := proto.Encode(conn, proto.TypeSensorReport,
				sensorReport(spec, h, ev.Wake, vt), nil); err != nil {
				return fail(err)
			}
			ack, err := proto.Decode(conn)
			if err != nil {
				return fail(err)
			}
			if ack.Type != proto.TypeAck {
				return fail(fmt.Errorf("sensor report answered with %v", ack.Type))
			}
			delivered, err := uploadWithRetry(spec, conn, h, vt, pcm, samples,
				opt, inj, policy, hWall, &out)
			if err != nil {
				return fail(err)
			}
			if delivered {
				out.delivered++
			} else {
				out.lost++
			}
		}
	}

	deadline()
	if err := proto.Encode(conn, proto.TypeBye, nil, nil); err == nil {
		_, _ = proto.Decode(conn) // best-effort ack; the session is done
	}
	return out
}

// uploadWithRetry runs one upload episode: link-fault draws and typed
// over-capacity rejects consume retry attempts with (optionally
// scaled) backoff sleeps, exactly the degraded-client behavior of
// faults.RetryPolicy. The virtual timestamp advances with each retry
// so the server-side e2e latency histogram sees the storm.
func uploadWithRetry(spec LoadSpec, conn net.Conn, h int, wake time.Time,
	pcm []byte, samples int, opt RunOptions, inj *faults.Injector,
	policy faults.RetryPolicy, hWall *obs.Histogram, out *hiveOutcome) (bool, error) {
	vt := wake
	for attempt := 1; ; attempt++ {
		backoff := func(extra time.Duration) bool {
			if attempt >= policy.MaxAttempts {
				return false
			}
			d := extra + policy.Backoff(attempt, inj.JitterU(vt, attempt))
			vt = vt.Add(d)
			if opt.SleepScale > 0 {
				time.Sleep(time.Duration(float64(d) * opt.SleepScale))
			}
			return true
		}
		// Link faults eat the attempt before any bytes are sent.
		if inj.DropUpload(vt, attempt) {
			out.droppedLink++
			if !backoff(policy.AttemptTimeout) {
				return false, nil
			}
			continue
		}
		_ = conn.SetDeadline(time.Now().Add(opt.IOTimeout))
		sent := time.Now()
		if err := proto.Encode(conn, proto.TypeAudioUpload, proto.AudioUpload{
			HiveID:     hiveID(h),
			Time:       vt,
			SampleRate: audio.SampleRate,
			Samples:    samples,
		}, pcm); err != nil {
			return false, err
		}
		f, err := proto.Decode(conn)
		if err != nil {
			return false, err
		}
		switch f.Type {
		case proto.TypeResult:
			hWall.Observe(time.Since(sent).Seconds())
			return true, nil
		case proto.TypeReject:
			var rej proto.RejectBody
			if err := f.Unmarshal(proto.TypeReject, &rej); err != nil {
				return false, err
			}
			out.rejected++
			if !backoff(0) {
				return false, nil
			}
		default:
			return false, fmt.Errorf("upload answered with %v", f.Type)
		}
	}
}
