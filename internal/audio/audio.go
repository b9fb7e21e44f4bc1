// Package audio synthesizes the in-hive sound that the paper's
// queen-detection service classifies, and provides a WAV codec for the
// clips.
//
// The real study trains on 1647 ten-second recordings labeled with queen
// presence. Those recordings are not public, so we generate a synthetic
// corpus with the documented bioacoustic structure of hive sound:
//
//   - A colony with a queen produces a steady harmonic hum with a
//     fundamental near 250 Hz and energy falling off with harmonic index.
//   - A queenless colony produces the well-known "roar": the fundamental
//     drifts upward, the harmonics broaden (frequency jitter), and the
//     broadband noise floor rises.
//   - A piping queen superimposes pulsed tones near 400 Hz.
//
// The classes overlap through per-clip randomness (fundamental drift,
// activity level, microphone noise), so classifiers face a real learning
// problem, but the spectral signatures the paper's models rely on are
// present. See DESIGN.md for why this substitution preserves the
// experiments' behaviour.
package audio

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"beesim/internal/hive"
	"beesim/internal/rng"
)

// SampleRate is the paper's recording rate (22 050 Hz).
const SampleRate = 22050

// ClipSeconds is the paper's clip length (10 s).
const ClipSeconds = 10

// Config shapes a synthesizer.
type Config struct {
	SampleRate int
	// Seconds is the clip length.
	Seconds float64
	// Seed drives all per-clip randomness.
	Seed uint64
}

// DefaultConfig matches the paper's recording setup.
func DefaultConfig() Config {
	return Config{SampleRate: SampleRate, Seconds: ClipSeconds, Seed: 1}
}

// Synth generates labeled hive-sound clips.
type Synth struct {
	cfg Config
	r   *rng.Source
}

// NewSynth creates a synthesizer.
func NewSynth(cfg Config) (*Synth, error) {
	if cfg.SampleRate <= 0 {
		return nil, errors.New("audio: non-positive sample rate")
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("audio: non-positive clip length")
	}
	return &Synth{cfg: cfg, r: rng.New(cfg.Seed)}, nil
}

// Clip synthesizes one clip for the given queen state and colony
// activity level in [0,1]. Each call draws fresh per-clip randomness.
func (s *Synth) Clip(state hive.QueenState, activity float64) []float64 {
	n := int(s.cfg.Seconds * float64(s.cfg.SampleRate))
	out := make([]float64, n)
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}

	// Per-clip draws: fundamental, drift, noise level.
	var (
		f0        float64
		jitter    float64 // harmonic frequency wobble depth
		noiseAmp  float64
		harmDecay float64
	)
	switch state {
	case hive.QueenPresent:
		f0 = s.r.Gaussian(250, 12)
		jitter = 0.004
		noiseAmp = 0.05 + 0.05*activity
		harmDecay = 1.0
	case hive.QueenLost:
		// Queenless roar: higher, unstable fundamental; flatter spectrum;
		// strong noise floor.
		f0 = s.r.Gaussian(310, 18)
		jitter = 0.03
		noiseAmp = 0.18 + 0.08*activity
		harmDecay = 0.55
	case hive.QueenPiping:
		f0 = s.r.Gaussian(250, 12)
		jitter = 0.006
		noiseAmp = 0.06 + 0.05*activity
		harmDecay = 1.0
	default:
		// Unknown state: ambient noise only.
		for i := range out {
			out[i] = 0.02 * s.r.Norm()
		}
		return out
	}

	humAmp := 0.25 + 0.5*activity
	const harmonics = 6
	// Random initial phases per harmonic, plus a slow random-walk pitch.
	// Each harmonic's amplitude is fixed for the clip.
	var phases, amps [harmonics]float64
	for h := range phases {
		phases[h] = s.r.Range(0, 2*math.Pi)
		amps[h] = humAmp * math.Pow(float64(h+1), -harmDecay)
	}
	pitch := f0
	dt := 1 / float64(s.cfg.SampleRate)
	// Slow amplitude modulation (fanning bursts) at ~0.3-2 Hz.
	amFreq := s.r.Range(0.3, 2)
	amPhase := s.r.Range(0, 2*math.Pi)

	for i := 0; i < n; i++ {
		// Pitch random walk, stronger when queenless.
		pitch += s.r.Gaussian(0, jitter*f0*0.02)
		// Mean-revert toward f0 so the walk stays bounded.
		pitch += (f0 - pitch) * 0.001

		var v float64
		for h := 0; h < harmonics; h++ {
			freq := pitch * float64(h+1)
			phases[h] += 2 * math.Pi * freq * dt
			v += amps[h] * math.Sin(phases[h])
		}
		am := 1 + 0.25*math.Sin(2*math.Pi*amFreq*float64(i)*dt+amPhase)
		v *= am
		v += noiseAmp * s.r.Norm()
		out[i] = v
	}

	if state == hive.QueenPiping {
		s.addPiping(out)
	}

	normalize(out, 0.9)
	return out
}

// addPiping superimposes pulsed ~400 Hz queen toots: a ~1 s pulse train
// of short tones, repeated every few seconds.
func (s *Synth) addPiping(x []float64) {
	sr := float64(s.cfg.SampleRate)
	tootFreq := s.r.Gaussian(400, 20)
	pos := int(s.r.Range(0, 1.5) * sr)
	for pos < len(x) {
		// One toot sequence: a long pulse then several short ones.
		durations := []float64{1.0, 0.25, 0.25, 0.25, 0.25}
		for _, d := range durations {
			nd := int(d * sr)
			for i := 0; i < nd && pos+i < len(x); i++ {
				env := math.Sin(math.Pi * float64(i) / float64(nd)) // smooth pulse
				x[pos+i] += 0.5 * env * math.Sin(2*math.Pi*tootFreq*float64(i)/sr)
			}
			pos += nd + int(0.1*sr)
		}
		pos += int(s.r.Range(2, 4) * sr)
	}
}

func normalize(x []float64, peak float64) {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max == 0 {
		return
	}
	scale := peak / max
	for i := range x {
		x[i] *= scale
	}
}

// LabeledClip is one corpus item.
type LabeledClip struct {
	Samples []float64
	// QueenPresent is the binary classification label.
	QueenPresent bool
}

// Corpus synthesizes a balanced labeled corpus of n clips (half queen
// present, half queenless), with per-clip random activity levels. The
// paper's corpus has 1647 clips; tests and benchmarks use smaller ones.
func Corpus(cfg Config, n int) ([]LabeledClip, error) {
	if n <= 0 {
		return nil, errors.New("audio: corpus size must be positive")
	}
	s, err := NewSynth(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]LabeledClip, n)
	for i := range out {
		present := i%2 == 0
		state := hive.QueenPresent
		if !present {
			state = hive.QueenLost
		}
		activity := s.r.Range(0.2, 1)
		out[i] = LabeledClip{Samples: s.Clip(state, activity), QueenPresent: present}
	}
	return out, nil
}

// --- WAV codec (16-bit PCM mono) ---

// WriteWAV encodes samples (clipped to [-1,1]) as a 16-bit PCM mono WAV.
func WriteWAV(w io.Writer, samples []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return errors.New("audio: non-positive sample rate")
	}
	dataLen := uint32(len(samples) * 2)
	var header []any = []any{
		[4]byte{'R', 'I', 'F', 'F'},
		uint32(36 + dataLen),
		[4]byte{'W', 'A', 'V', 'E'},
		[4]byte{'f', 'm', 't', ' '},
		uint32(16),             // fmt chunk size
		uint16(1),              // PCM
		uint16(1),              // mono
		uint32(sampleRate),     // sample rate
		uint32(sampleRate * 2), // byte rate
		uint16(2),              // block align
		uint16(16),             // bits per sample
		[4]byte{'d', 'a', 't', 'a'},
		dataLen,
	}
	for _, v := range header {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]int16, len(samples))
	for i, v := range samples {
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		buf[i] = int16(v * 32767)
	}
	return binary.Write(w, binary.LittleEndian, buf)
}
