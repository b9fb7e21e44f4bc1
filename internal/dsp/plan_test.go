package dsp

import (
	"fmt"
	"math"
	"testing"

	"beesim/internal/parallel"
	"beesim/internal/rng"
)

// planTestClip synthesizes a short noisy multi-tone clip long enough
// for several STFT frames under the paper configuration.
func planTestClip(seed uint64, samples int) []float64 {
	r := rng.New(seed)
	clip := make([]float64, samples)
	for i := range clip {
		clip[i] = r.Norm()
	}
	return clip
}

func TestPlanErrors(t *testing.T) {
	if _, err := newPlan(STFTConfig{FFTSize: 100, Hop: 32}, 0, 0); err == nil {
		t.Error("non-power-of-two FFT size accepted")
	}
	if _, err := newPlan(STFTConfig{FFTSize: 256, Hop: 0}, 0, 0); err == nil {
		t.Error("zero hop accepted")
	}
	if _, err := newPlan(STFTConfig{FFTSize: 256, Hop: 64}, -1, 8000); err == nil {
		t.Error("negative mel count accepted")
	}
	if _, err := newPlan(STFTConfig{FFTSize: 256, Hop: 64}, 16, 0); err == nil {
		t.Error("mel plan with zero sample rate accepted")
	}
	p, err := newPlan(STFTConfig{FFTSize: 256, Hop: 64}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MelSpectrogram(planTestClip(1, 1024)); err == nil {
		t.Error("mel spectrogram on a power-only plan accepted")
	}
	if _, err := p.PowerFrames(make([]float64, 100)); err == nil {
		t.Error("too-short signal accepted")
	}
}

func TestPlanFrames(t *testing.T) {
	p, err := newPlan(STFTConfig{FFTSize: 256, Hop: 64}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]int{0: 0, 255: 0, 256: 1, 319: 1, 320: 2, 256 + 64*9: 10}
	for sigLen, want := range cases {
		if got := p.frameCount(sigLen); got != want {
			t.Errorf("frameCount(%d) = %d, want %d", sigLen, got, want)
		}
	}
}

// TestPlanMatchesPackageFunctions pins the memo contract: the
// package-level MelSpectrogram and PlanFor route through the memoized
// Plan, and an independently constructed Plan produces byte-identical
// matrices to both.
func TestPlanMatchesPackageFunctions(t *testing.T) {
	cfg := STFTConfig{FFTSize: 512, Hop: 128}
	clip := planTestClip(21, 4096)

	powPlan, err := PlanFor(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantPow, err := powPlan.PowerFrames(clip)
	if err != nil {
		t.Fatal(err)
	}
	wantMel, err := MelSpectrogram(clip, cfg, 32, 16000)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := newPlan(cfg, 32, 16000)
	if err != nil {
		t.Fatal(err)
	}
	gotPow, err := plan.PowerFrames(clip)
	if err != nil {
		t.Fatal(err)
	}
	gotMel, err := plan.MelSpectrogram(clip)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMatrix(t, "power", gotPow, wantPow)
	mustEqualMatrix(t, "mel", gotMel, wantMel)
}

// TestPowerFramesIsTranspose checks the frame-major layout holds
// exactly the values of the bin-major |STFT|^2 spectrogram, transposed.
// The bin-major reference is built here, one column per frame, from
// the packed real FFT of the Hann-windowed frame.
func TestPowerFramesIsTranspose(t *testing.T) {
	cfg := STFTConfig{FFTSize: 256, Hop: 64}
	clip := planTestClip(22, 2048)
	plan, err := newPlan(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := 1 + (len(clip)-cfg.FFTSize)/cfg.Hop
	binMajor := NewMatrix(cfg.FFTSize/2+1, frames)
	frame := make([]float64, cfg.FFTSize)
	window := hannWindow(cfg.FFTSize)
	for f := 0; f < frames; f++ {
		for i := range frame {
			frame[i] = clip[f*cfg.Hop+i] * window[i]
		}
		spec, err := rfftFresh(frame)
		if err != nil {
			t.Fatal(err)
		}
		for b, v := range spec {
			binMajor.Data[b*frames+f] = real(v)*real(v) + imag(v)*imag(v)
		}
	}
	frameMajor, err := plan.PowerFrames(clip)
	if err != nil {
		t.Fatal(err)
	}
	if frameMajor.Rows != binMajor.Cols || frameMajor.Cols != binMajor.Rows {
		t.Fatalf("frame-major %dx%d vs bin-major %dx%d",
			frameMajor.Rows, frameMajor.Cols, binMajor.Rows, binMajor.Cols)
	}
	for f := 0; f < frameMajor.Rows; f++ {
		for b := 0; b < frameMajor.Cols; b++ {
			if frameMajor.At(f, b) != binMajor.At(b, f) {
				t.Fatalf("frame %d bin %d: %v != %v", f, b, frameMajor.At(f, b), binMajor.At(b, f))
			}
		}
	}
}

// TestSparseBankMatchesDense is the filterbank-equivalence property the
// CSR projection ships under: projecting the plan's own power
// spectrogram through the dense filterbank — skipping exact
// zeros, as the legacy loop did — must reproduce the fused sparse mel
// output bit for bit.
func TestSparseBankMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		nMels, sampleRate int
		cfg               STFTConfig
	}{
		{16, 8000, STFTConfig{FFTSize: 256, Hop: 64}},
		{64, 22050, STFTConfig{FFTSize: 1024, Hop: 256}},
		{128, 16000, PaperSTFT()},
		// More bands than FFT bins: some triangles are empty, which the
		// CSR build represents as zero-length spans.
		{200, 8000, STFTConfig{FFTSize: 256, Hop: 64}},
	} {
		plan, err := newPlan(tc.cfg, tc.nMels, tc.sampleRate)
		if err != nil {
			t.Fatal(err)
		}
		clip := planTestClip(uint64(tc.nMels), 4*tc.cfg.FFTSize)
		got, err := plan.MelSpectrogram(clip)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := plan.PowerFrames(clip)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := buildMelFilterbank(tc.nMels, tc.cfg.FFTSize, tc.sampleRate)
		if err != nil {
			t.Fatal(err)
		}
		want := NewMatrix(tc.nMels, spec.Rows)
		for m := 0; m < tc.nMels; m++ {
			for f := 0; f < spec.Rows; f++ {
				var sum float64
				for b := 0; b < fb.Cols; b++ {
					if w := fb.At(m, b); w != 0 {
						sum += w * spec.At(f, b)
					}
				}
				want.Data[m*want.Cols+f] = math.Log1p(sum)
			}
		}
		mustEqualMatrix(t, fmt.Sprintf("mel %d bands", tc.nMels), got, want)
	}
}

// TestMelSpectrogramIntoReuse checks the arena contract of
// MelSpectrogramInto: a destination reused across clips (including one of a
// different length) always matches a fresh computation, with zero
// steady-state allocations beyond the matrix header bookkeeping.
func TestMelSpectrogramIntoReuse(t *testing.T) {
	plan, err := newPlan(STFTConfig{FFTSize: 512, Hop: 128}, 40, 16000)
	if err != nil {
		t.Fatal(err)
	}
	var dst *Matrix
	for i, samples := range []int{4096, 2048, 4096, 3000} {
		clip := planTestClip(uint64(30+i), samples)
		fresh, err := plan.MelSpectrogram(clip)
		if err != nil {
			t.Fatal(err)
		}
		dst, err = plan.MelSpectrogramInto(dst, clip)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualMatrix(t, fmt.Sprintf("clip %d", i), dst, fresh)
	}
}

// TestPlanForMemoizes checks PlanFor returns one shared instance per
// shape and distinct instances across shapes, and that ResetCaches
// drops the memo.
func TestPlanForMemoizes(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := STFTConfig{FFTSize: 256, Hop: 64}
	a, err := PlanFor(cfg, 16, 8000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(cfg, 16, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor rebuilt a memoized shape")
	}
	c, err := PlanFor(cfg, 32, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct shapes share a plan")
	}
	if _, err := PlanFor(STFTConfig{FFTSize: 100, Hop: 3}, 0, 0); err == nil {
		t.Error("invalid shape memoized without error")
	}
	ResetCaches()
	d, err := PlanFor(cfg, 16, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("ResetCaches left the plan memo intact")
	}
}

// TestPlanConcurrentReuse hammers one shared Plan from many goroutines
// (via the worker pool, the only sanctioned concurrency primitive) and
// checks every result is byte-identical to a serial baseline. Run under
// `make race` this doubles as the data-race proof for the pooled
// scratch arenas.
func TestPlanConcurrentReuse(t *testing.T) {
	plan, err := newPlan(STFTConfig{FFTSize: 512, Hop: 128}, 40, 16000)
	if err != nil {
		t.Fatal(err)
	}
	const nClips = 16
	clips := make([][]float64, nClips)
	want := make([]*Matrix, nClips)
	for i := range clips {
		clips[i] = planTestClip(uint64(50+i), 3000+17*i)
		want[i], err = plan.MelSpectrogram(clips[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := parallel.Map(8, nClips, func(i int) (*Matrix, error) {
		return plan.MelSpectrogram(clips[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		mustEqualMatrix(t, fmt.Sprintf("concurrent clip %d", i), got[i], want[i])
	}
}

// mustEqualMatrix fails the test unless a and b have identical shape
// and bit-identical contents.
func mustEqualMatrix(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", label, i, got.Data[i], want.Data[i])
		}
	}
}
