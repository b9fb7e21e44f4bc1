package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hivenet"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/rng"
	"beesim/internal/store"
)

// upload drives a live hivenet.Server on loopback, with a file-backed
// archive, through one connection in a closed loop of wake-up cycles:
// SensorReport -> Ack, then AudioUpload -> Result. One op is one cycle,
// from wake-up to archived verdict. Uploads come from a bank of
// labelled clips synthesized during set-up, so generating load costs no
// synthesis.
type upload struct {
	seed   uint64
	hive   string
	dir    string
	srv    *hivenet.Server
	served chan error
	conn   net.Conn
	bank   []audio.LabeledClip
	pcm    [][]byte

	// Traced runs only: the server's model rebuilt from its public
	// parts, and a scratch store, for the stage replays.
	detector *queendetect.SVMResult
	replays  *store.Store

	cycles, agree int
	last          proto.Result
	lastAt        time.Time
}

// The upload workload's shapes (README: "Inputs").
const (
	bankClips       = 24
	bankClipSeconds = 1
	wakePeriod      = 5 * time.Minute
	// verdictFloor is the share of cycles whose verdict must match the
	// clip's label.
	verdictFloor = 0.9
)

var uploadEpoch = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// burstJoules is one upload's above-idle server energy, from Table II's
// rows: receive 1032 J over 15 s and SVM execution 6.3 J over 0.1 s,
// each less the 44.6 W idle draw over its duration.
const burstJoules = (1032 - 44.6*15) + (6.3 - 44.6*0.1)

func (w *upload) round() int { return 1 }

func (w *upload) setup(e *env) error {
	w.seed = e.seed
	w.dir = e.tmp
	w.hive = fmt.Sprintf("hive-%016x", e.seed)
	cfg := hivenet.DefaultServerConfig()
	cfg.Seed = e.seed
	cfg.ArchivePath = filepath.Join(w.dir, "archive.log")
	if e.tr != nil {
		if err := w.rebuildDetector(cfg, e.tr); err != nil {
			return err
		}
	}
	err := e.tr.do("hivenet.new_server", func() (err error) {
		w.srv, err = hivenet.NewServer("127.0.0.1:0", cfg)
		return err
	})
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve() }()
	if w.detector != nil && w.detector.Metrics.Accuracy != w.srv.DetectorAccuracy() {
		return fmt.Errorf("rebuilt detector accuracy %.4f differs from the server's %.4f",
			w.detector.Metrics.Accuracy, w.srv.DetectorAccuracy())
	}
	w.bank, err = audio.Corpus(audio.Config{
		SampleRate: audio.SampleRate, Seconds: bankClipSeconds, Seed: rng.StreamSeed(e.seed, 2),
	}, bankClips)
	if err != nil {
		return err
	}
	for _, c := range w.bank {
		w.pcm = append(w.pcm, proto.PCMEncode(c.Samples))
	}
	return w.dial()
}

// rebuildDetector repeats hivenet.NewServer's training from its public
// parts, timing each, and keeps the model for the decision replay.
func (w *upload) rebuildDetector(cfg hivenet.ServerConfig, tr *tracer) error {
	var corpus []audio.LabeledClip
	err := tr.do("hivenet.setup_corpus", func() (err error) {
		corpus, err = audio.Corpus(audio.Config{
			SampleRate: audio.SampleRate, Seconds: cfg.ClipSeconds, Seed: cfg.Seed,
		}, cfg.TrainCorpus)
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.do("hivenet.setup_train", func() (err error) {
		w.detector, err = queendetect.TrainSVM(corpus, audio.SampleRate, cfg.Seed)
		return err
	}); err != nil {
		return err
	}
	w.replays, err = store.Open(filepath.Join(w.dir, "replay.log"))
	return err
}

// dial opens the session: Hello -> Welcome.
func (w *upload) dial() error {
	conn, err := net.Dial("tcp", w.srv.Addr())
	if err != nil {
		return err
	}
	w.conn = conn
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID: w.hive, WakePeriodSeconds: wakePeriod.Seconds(), Version: 1,
	}, nil); err != nil {
		return err
	}
	f, err := proto.Decode(conn)
	if err != nil {
		return err
	}
	var welcome proto.Welcome
	return f.Unmarshal(proto.TypeWelcome, &welcome)
}

// cycleAt is op i's wake-up time; the warm-up op (-1) wakes first.
func cycleAt(i int) time.Time { return uploadEpoch.Add(time.Duration(i+1) * wakePeriod) }

func (w *upload) clip(i int) int { return (i + 1) % len(w.bank) }

func (w *upload) op(i int, tr *tracer) error {
	at := cycleAt(i)
	err := tr.do("upload.report_ack", func() error {
		if err := proto.Encode(w.conn, proto.TypeSensorReport, proto.SensorReport{
			HiveID: w.hive, Time: at, InsideTempC: 34.8, InsideRH: 0.6, OutsideTempC: 14, BatterySoC: 0.8,
		}, nil); err != nil {
			return err
		}
		f, err := proto.Decode(w.conn)
		if err != nil {
			return err
		}
		if f.Type != proto.TypeAck {
			return fmt.Errorf("sensor report answered with %v, want %v", f.Type, proto.TypeAck)
		}
		return nil
	})
	if err != nil {
		return err
	}
	k := w.clip(i)
	if err := proto.Encode(w.conn, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: w.hive, Time: at, SampleRate: audio.SampleRate, Samples: len(w.bank[k].Samples),
	}, w.pcm[k]); err != nil {
		return err
	}
	f, err := proto.Decode(w.conn)
	if err != nil {
		return err
	}
	var res proto.Result
	if err := f.Unmarshal(proto.TypeResult, &res); err != nil {
		return err
	}
	w.cycles++
	if res.QueenPresent == w.bank[k].QueenPresent {
		w.agree++
	}
	w.last, w.lastAt = res, at
	return nil
}

// replay re-runs, on op i's clip, the stages the server performs out of
// the benchmark's reach: frame codec, PCM decode, features, the SVM
// decision and an archive append.
func (w *upload) replay(i int, tr *tracer) error {
	at := cycleAt(i)
	k := w.clip(i)
	up := proto.AudioUpload{HiveID: w.hive, Time: at, SampleRate: audio.SampleRate, Samples: len(w.bank[k].Samples)}
	err := tr.do("proto.frame", func() error {
		var buf bytes.Buffer
		if err := proto.Encode(&buf, proto.TypeAudioUpload, up, w.pcm[k]); err != nil {
			return err
		}
		f, err := proto.Decode(&buf)
		if err != nil {
			return err
		}
		var got proto.AudioUpload
		if err := f.Unmarshal(proto.TypeAudioUpload, &got); err != nil {
			return err
		}
		if err := proto.Encode(&buf, proto.TypeResult, w.last, nil); err != nil {
			return err
		}
		_, err = proto.Decode(&buf)
		return err
	})
	if err != nil {
		return err
	}
	var samples []float64
	if err := tr.do("proto.pcm_decode", func() (err error) {
		samples, err = proto.PCMDecode(w.pcm[k])
		return err
	}); err != nil {
		return err
	}
	var v []float64
	if err := tr.do("queendetect.features", func() (err error) {
		v, err = queendetect.VectorFeatures(samples, audio.SampleRate)
		return err
	}); err != nil {
		return err
	}
	_ = tr.do("svm.decision", func() error {
		w.detector.Model.Decision(w.detector.Scaler.Transform(v))
		return nil
	})
	return tr.do("store.append", func() error {
		return w.replays.Append(store.Record{
			Hive: w.hive, Time: at, Kind: store.KindResult,
			Fields: map[string]float64{"queen_present": 1, "confidence": w.last.Confidence},
			Text:   map[string]string{"computed_at": w.last.ComputedAt},
		})
	})
}

func (w *upload) verify(i int) error {
	if w.last.HiveID != w.hive || !w.last.Time.Equal(w.lastAt) || w.last.ComputedAt != "cloud" {
		return fmt.Errorf("upload op %d: result for hive %q at %v from %q, want %q at %v from cloud",
			i, w.last.HiveID, w.last.Time, w.last.ComputedAt, w.hive, w.lastAt)
	}
	return nil
}

// finish closes the session and the server, then checks the server's
// books and archive against the cycles the client completed.
func (w *upload) finish() error {
	var errs []error
	if w.conn != nil {
		errs = append(errs, w.bye())
	}
	if w.srv == nil {
		return errors.Join(errs...)
	}
	errs = append(errs, w.checkBooks())
	errs = append(errs, w.srv.Close(), <-w.served)
	if w.replays != nil {
		errs = append(errs, w.replays.Close())
	}
	// The archive is durable: re-opening the log re-indexes every
	// record the cycles wrote.
	a, err := store.Open(filepath.Join(w.dir, "archive.log"))
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	if got, want := a.Len(), 2*w.cycles; got != want {
		errs = append(errs, fmt.Errorf("re-opened archive holds %d records, want %d", got, want))
	}
	errs = append(errs, a.Close())
	return errors.Join(errs...)
}

func (w *upload) bye() error {
	defer w.conn.Close()
	if err := proto.Encode(w.conn, proto.TypeBye, nil, nil); err != nil {
		return err
	}
	f, err := proto.Decode(w.conn)
	if err != nil {
		return err
	}
	if f.Type != proto.TypeAck {
		return fmt.Errorf("bye answered with %v", f.Type)
	}
	return nil
}

func (w *upload) checkBooks() error {
	st := w.srv.Stats()
	if st.Uploads != w.cycles || st.Reports != w.cycles || st.Rejects != 0 {
		return fmt.Errorf("server counted %d uploads, %d reports, %d rejects for %d cycles",
			st.Uploads, st.Reports, st.Rejects, w.cycles)
	}
	want := float64(w.cycles) * burstJoules
	if got := float64(st.BurstEnergy); math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("burst energy %.6f J, want %d cycles x %.2f J = %.6f J", got, w.cycles, burstJoules, want)
	}
	for _, kind := range []store.Kind{store.KindSensor, store.KindResult} {
		recs, err := w.srv.Archive().Query(w.hive, uploadEpoch, cycleAt(w.cycles), kind)
		if err != nil {
			return err
		}
		if len(recs) != w.cycles {
			return fmt.Errorf("archive holds %d %v records, want one per cycle (%d)", len(recs), kind, w.cycles)
		}
	}
	if share := float64(w.agree) / float64(w.cycles); share < verdictFloor {
		return fmt.Errorf("verdicts match labels on %.3f of cycles, floor %.2f", share, verdictFloor)
	}
	return nil
}

func (w *upload) layers() []layer {
	us := time.Microsecond
	return []layer{
		{metric: "hivenet.setup_corpus_ms", unit: "ms", setupSpan: "hivenet.setup_corpus", scale: time.Millisecond},
		{metric: "hivenet.setup_train_ms", unit: "ms", setupSpan: "hivenet.setup_train", scale: time.Millisecond},
		{metric: "proto.frame_us", unit: "us", span: "proto.frame", scale: us},
		{metric: "proto.pcm_decode_us", unit: "us", span: "proto.pcm_decode", scale: us},
		{metric: "queendetect.features_us", unit: "us", span: "queendetect.features", scale: us},
		{metric: "svm.decision_us", unit: "us", span: "svm.decision", scale: us},
		{metric: "store.append_us", unit: "us", span: "store.append", scale: us},
		{metric: "upload.report_ack_us", unit: "us", span: "upload.report_ack", scale: us},
		{metric: "upload.unattributed_us", unit: "us", scale: us, unattributed: true},
	}
}
