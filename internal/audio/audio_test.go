package audio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"beesim/internal/dsp"
	"beesim/internal/hive"
)

func shortCfg() Config {
	return Config{SampleRate: SampleRate, Seconds: 1, Seed: 7}
}

func TestNewSynthValidation(t *testing.T) {
	if _, err := NewSynth(Config{SampleRate: 0, Seconds: 1}); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := NewSynth(Config{SampleRate: 22050, Seconds: 0}); err == nil {
		t.Error("zero length accepted")
	}
}

func TestClipLengthAndRange(t *testing.T) {
	s, err := NewSynth(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clip := s.Clip(hive.QueenPresent, 0.8)
	if len(clip) != SampleRate*ClipSeconds {
		t.Fatalf("clip length = %d, want %d", len(clip), SampleRate*ClipSeconds)
	}
	for i, v := range clip {
		if math.Abs(v) > 1 {
			t.Fatalf("sample %d = %v out of [-1,1]", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := NewSynth(shortCfg())
	b, _ := NewSynth(shortCfg())
	ca := a.Clip(hive.QueenPresent, 0.5)
	cb := b.Clip(hive.QueenPresent, 0.5)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("equal-seed clips differ at %d", i)
		}
	}
}

func TestClipsVaryBetweenCalls(t *testing.T) {
	s, _ := NewSynth(shortCfg())
	a := s.Clip(hive.QueenPresent, 0.5)
	b := s.Clip(hive.QueenPresent, 0.5)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatal("consecutive clips are nearly identical; per-clip randomness missing")
	}
}

// spectralProfile returns the pooled mel vector of a clip.
func spectralProfile(t *testing.T, clip []float64) []float64 {
	t.Helper()
	mel, err := dsp.MelSpectrogram(clip, dsp.PaperSTFT(), 64, SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	return mel.MeanPool()
}

func TestQueenPresentHumPeak(t *testing.T) {
	s, _ := NewSynth(shortCfg())
	clip := s.Clip(hive.QueenPresent, 0.8)
	plan, err := dsp.PlanFor(dsp.PaperSTFT(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.PowerFrames(clip)
	if err != nil {
		t.Fatal(err)
	}
	// Time-average spectrum peak must sit near the ~250 Hz fundamental
	// (bin = f * 2048 / 22050 ≈ 23) or one of its low harmonics.
	best, bestV := 0, -1.0
	for b := 1; b < spec.Cols; b++ {
		var sum float64
		for f := 0; f < spec.Rows; f++ {
			sum += spec.At(f, b)
		}
		if sum > bestV {
			best, bestV = b, sum
		}
	}
	hz := float64(best) * SampleRate / 2048
	if hz < 180 || hz > 900 {
		t.Fatalf("dominant frequency = %.0f Hz, want a low hive-hum harmonic", hz)
	}
}

func TestClassesAreSpectrallySeparable(t *testing.T) {
	// Queenless clips must have flatter spectra: relatively more energy
	// in the upper mel bands than queen-present clips, on average.
	s, _ := NewSynth(shortCfg())
	ratio := func(state hive.QueenState) float64 {
		var low, high float64
		for i := 0; i < 5; i++ {
			p := spectralProfile(t, s.Clip(state, 0.6))
			for b := 0; b < 16; b++ {
				low += p[b]
			}
			for b := 32; b < 64; b++ {
				high += p[b]
			}
		}
		return high / low
	}
	if rq, rl := ratio(hive.QueenPresent), ratio(hive.QueenLost); rl <= rq {
		t.Fatalf("queenless high/low ratio %v not above queen-present %v", rl, rq)
	}
}

func TestPipingAddsMidTone(t *testing.T) {
	s, _ := NewSynth(Config{SampleRate: SampleRate, Seconds: 3, Seed: 11})
	// Piping boosts the bands around 400 Hz relative to total energy.
	// 400 Hz on a 64-band mel scale over 11 kHz lands near band 10.
	// Average the mid-band fraction over several clips: per-clip draws
	// (fundamental, noise) make single-clip comparisons noisy.
	midFraction := func(state hive.QueenState) float64 {
		var frac float64
		const reps = 6
		for i := 0; i < reps; i++ {
			p := spectralProfile(t, s.Clip(state, 0.5))
			var mid, total float64
			for b, v := range p {
				total += v
				if b >= 8 && b < 14 {
					mid += v
				}
			}
			frac += mid / total
		}
		return frac / reps
	}
	if plain, piping := midFraction(hive.QueenPresent), midFraction(hive.QueenPiping); piping <= plain {
		t.Fatalf("piping mid-band fraction %v not above plain %v", piping, plain)
	}
}

func TestUnknownStateIsNoise(t *testing.T) {
	s, _ := NewSynth(shortCfg())
	clip := s.Clip(hive.QueenState(42), 0.5)
	var rms float64
	for _, v := range clip {
		rms += v * v
	}
	rms = math.Sqrt(rms / float64(len(clip)))
	if rms > 0.1 {
		t.Fatalf("unknown-state clip RMS = %v, want quiet noise", rms)
	}
}

func TestActivityScalesLoudness(t *testing.T) {
	// Before normalization the hum scales with activity; after
	// normalization loudness is equal but SNR differs. Verify the noise
	// floor (high-frequency flatness) is relatively higher at low
	// activity.
	s, _ := NewSynth(shortCfg())
	quiet := spectralProfile(t, s.Clip(hive.QueenPresent, 0.05))
	busy := spectralProfile(t, s.Clip(hive.QueenPresent, 1.0))
	flat := func(p []float64) float64 {
		var low, high float64
		for b := 0; b < 8; b++ {
			low += p[b]
		}
		for b := 48; b < 64; b++ {
			high += p[b]
		}
		return high / low
	}
	if flat(quiet) <= flat(busy) {
		t.Fatalf("low-activity clip not noisier relative to hum: %v vs %v",
			flat(quiet), flat(busy))
	}
}

func TestCorpusBalanced(t *testing.T) {
	clips, err := Corpus(shortCfg(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(clips) != 20 {
		t.Fatalf("corpus size = %d", len(clips))
	}
	present := 0
	for _, c := range clips {
		if c.QueenPresent {
			present++
		}
	}
	if present != 10 {
		t.Fatalf("corpus balance = %d/20 queen-present, want 10", present)
	}
}

func TestCorpusErrors(t *testing.T) {
	if _, err := Corpus(shortCfg(), 0); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Corpus(Config{}, 4); err == nil {
		t.Error("bad config accepted")
	}
}

// decodeWAV reads back the 44-byte header and 16-bit samples that
// WriteWAV emits.
func decodeWAV(t *testing.T, b []byte) (samples []float64, sampleRate int) {
	t.Helper()
	if len(b) < 44 || string(b[0:4]) != "RIFF" || string(b[8:16]) != "WAVEfmt " || string(b[36:40]) != "data" {
		t.Fatalf("not a canonical WAV header: % x", b[:min(len(b), 44)])
	}
	le := binary.LittleEndian
	if format, ch, bits := le.Uint16(b[20:]), le.Uint16(b[22:]), le.Uint16(b[34:]); format != 1 || ch != 1 || bits != 16 {
		t.Fatalf("format %d, channels %d, bits %d; want 16-bit PCM mono", format, ch, bits)
	}
	if n := le.Uint32(b[40:]); int(n) != len(b)-44 || le.Uint32(b[4:]) != 36+n {
		t.Fatalf("chunk sizes disagree with %d data bytes", len(b)-44)
	}
	for i := 44; i+1 < len(b); i += 2 {
		samples = append(samples, float64(int16(le.Uint16(b[i:])))/32767)
	}
	return samples, int(le.Uint32(b[24:]))
}

func TestWAVRoundTrip(t *testing.T) {
	s, _ := NewSynth(shortCfg())
	clip := s.Clip(hive.QueenPresent, 0.7)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, clip, SampleRate); err != nil {
		t.Fatal(err)
	}
	// RIFF header + 16-bit samples.
	if buf.Len() != 44+2*len(clip) {
		t.Fatalf("wav size = %d, want %d", buf.Len(), 44+2*len(clip))
	}
	back, rate := decodeWAV(t, buf.Bytes())
	if rate != SampleRate {
		t.Fatalf("rate = %d", rate)
	}
	if len(back) != len(clip) {
		t.Fatalf("length = %d, want %d", len(back), len(clip))
	}
	for i := range clip {
		if math.Abs(back[i]-clip[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v beyond quantization", i, back[i], clip[i])
		}
	}
}

func TestWAVClipsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{2.5, -3.0}, 8000); err != nil {
		t.Fatal(err)
	}
	back, _ := decodeWAV(t, buf.Bytes())
	if back[0] < 0.99 || back[1] > -0.99 {
		t.Fatalf("out-of-range samples not clipped: %v", back)
	}
}

func TestWAVErrors(t *testing.T) {
	if err := WriteWAV(&bytes.Buffer{}, []float64{0}, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

// learnCfg is the learn benchmark's corpus shape: 40 half-second clips.
func learnCfg() Config {
	return Config{SampleRate: SampleRate, Seconds: 0.5, Seed: 1}
}

// TestCorpusBitsPinned pins the exact samples of the learn corpus: the
// FNV-64a hash of every sample's little-endian float64 bits. Any change
// to the synthesizer's arithmetic, however small, moves it.
func TestCorpusBitsPinned(t *testing.T) {
	corpus, err := Corpus(learnCfg(), 40)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, c := range corpus {
		for _, v := range c.Samples {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "a13349d1e14911d2"; got != want {
		t.Fatalf("corpus hash = %s, want %s", got, want)
	}
}

func BenchmarkCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Corpus(learnCfg(), 40); err != nil {
			b.Fatal(err)
		}
	}
}
