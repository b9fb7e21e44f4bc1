package hivenet

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/proto"
)

// repeatReader serves the same frame bytes n times, then EOF — a
// session carrying n identical uploads without materializing them.
type repeatReader struct {
	frame []byte
	n     int
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := copy(p, r.frame[r.off:])
	r.off += k
	if r.off == len(r.frame) {
		r.off = 0
		r.n--
	}
	return k, nil
}

// BenchmarkServerHandleUpload measures the server's full per-upload
// path — frame decode, admission, PCM decode, inference, accounting,
// archive append under the shed-oldest cap, result encode — by
// streaming one session of b.N identical uploads through the handler
// over an in-memory conn.
func BenchmarkServerHandleUpload(b *testing.B) {
	// dsp's frame fan-out sizes itself by the machine's CPU count; one
	// worker keeps allocs/op the same on every machine.
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	cfg := DefaultServerConfig()
	cfg.TrainCorpus = 12
	cfg.ClipSeconds = 0.25
	cfg.Metrics = obs.NewRegistry()
	cfg.Admission = AdmissionConfig{MaxInflightUploads: 4, MaxArchiveRecords: 64}
	s, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	hello := encodeFrame(b, proto.TypeHello,
		proto.Hello{HiveID: "bench", WakePeriodSeconds: 300, Version: 1}, nil)
	clip := make([]float64, audio.SampleRate/4)
	upload := encodeFrame(b, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: "bench", Time: time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC),
		SampleRate: audio.SampleRate, Samples: len(clip),
	}, proto.PCMEncode(clip))

	b.SetBytes(int64(len(upload)))
	b.ReportAllocs()
	b.ResetTimer()
	err = s.handle(&scriptConn{r: io.MultiReader(
		bytes.NewReader(hello), &repeatReader{frame: upload, n: b.N})})
	b.StopTimer()
	if err != nil && !errors.Is(err, io.EOF) {
		b.Fatal(err)
	}
	if got := s.Stats().Uploads; got != b.N {
		b.Fatalf("handled %d uploads, want %d", got, b.N)
	}
}
