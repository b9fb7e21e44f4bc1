package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"beesim/internal/rng"
)

func TestFFTErrors(t *testing.T) {
	if err := fft(nil); err == nil {
		t.Error("empty FFT accepted")
	}
	if err := fft(make([]complex128, 12)); err == nil {
		t.Error("non-power-of-two FFT accepted")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	if err := fft(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure cosine at bin k concentrates in bins k and n-k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k*i)/n), 0)
	}
	if err := fft(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Fatalf("bin %d magnitude = %v, want %v", i, mag, n/2)
			}
		} else if mag > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want 0", i, mag)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// fft(a*x + b*y) == a*fft(x) + b*fft(y)
	f := func(seed uint64, aRaw, bRaw int8) bool {
		const n = 32
		a := complex(float64(aRaw)/16, 0)
		b := complex(float64(bRaw)/16, 0)
		r := rng.New(seed)
		x := make([]complex128, n)
		y := make([]complex128, n)
		combo := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(r.Norm(), r.Norm())
			y[i] = complex(r.Norm(), r.Norm())
			combo[i] = a*x[i] + b*y[i]
		}
		if fft(x) != nil || fft(y) != nil || fft(combo) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if cmplx.Abs(combo[i]-(a*x[i]+b*y[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2
	f := func(seed uint64) bool {
		const n = 64
		r := rng.New(seed)
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(r.Norm(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if fft(x) != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeEnergy-freqEnergy/n) < 1e-9*math.Max(1, timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRFFT(t *testing.T) {
	x := make([]float64, 32)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 3 * float64(i) / 32)
	}
	bins, err := rfftFresh(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 17 {
		t.Fatalf("rfft bins = %d, want 17", len(bins))
	}
	if mag := cmplx.Abs(bins[3]); math.Abs(mag-16) > 1e-9 {
		t.Fatalf("bin 3 magnitude = %v, want 16", mag)
	}
}

// rfftFresh is the packed real FFT of x into a fresh destination.
func rfftFresh(x []float64) ([]complex128, error) {
	return RFFTInto(make([]complex128, len(x)/2+1), x)
}

// rfftUlpBound is the packed real FFT's agreement contract with the
// complex transform: every packed bin of x must lie within this many
// ulps of fft(widen(x)) — the ulp taken at the spectrum's peak
// magnitude, since FFT rounding error is relative to the whole
// transform's scale, not to individual (possibly tiny) bins. Both
// transforms build twiddles by incremental recurrence (the price of
// cold/warm cache bit-identity), so their divergence grows like
// sqrt(n) ulps-of-scale: measured worst cases run 4 ulp at n=16 to
// ~370 ulp at n=8192. 512 bounds that with margin while staying ~12
// orders of magnitude below the signal, so any algorithmic error —
// a wrong untangle term is O(scale) — still fails loudly.
const rfftUlpBound = 512

// checkRFFTAgainstFFT computes both transforms of x and fails if any
// bin disagrees beyond rfftUlpBound. It returns the packed result for
// further checks.
func checkRFFTAgainstFFT(t *testing.T, x []float64) []complex128 {
	t.Helper()
	got, err := rfftFresh(x)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]complex128, len(x))
	for i, v := range x {
		ref[i] = complex(v, 0)
	}
	if err := fft(ref); err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range ref {
		if m := cmplx.Abs(v); m > scale {
			scale = m
		}
	}
	tol := float64(rfftUlpBound) * (math.Nextafter(scale, math.Inf(1)) - scale)
	if scale == 0 {
		tol = 0
	}
	for k, v := range got {
		if d := cmplx.Abs(v - ref[k]); d > tol {
			t.Fatalf("n=%d bin %d: rfft %v vs fft %v, |diff| %g > %g (%d ulp at scale %g)",
				len(x), k, v, ref[k], d, tol, rfftUlpBound, scale)
		}
	}
	return got
}

// TestRFFTMatchesFFT is the real-FFT validation property the packed
// algorithm ships under: for every power-of-two size from 2 to 8192
// and random inputs, the n/2+1 bins agree with the complex transform
// within the stated ulp bound.
func TestRFFTMatchesFFT(t *testing.T) {
	r := rng.New(11)
	for n := 2; n <= 8192; n <<= 1 {
		for rep := 0; rep < 3; rep++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Norm()
			}
			checkRFFTAgainstFFT(t, x)
		}
	}
	// Degenerate single-sample transform.
	got, err := rfftFresh([]float64{3.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != complex(3.25, 0) {
		t.Fatalf("RFFT of one sample = %v", got)
	}
}

// TestRFFTConjugateSymmetryBins pins the two real-valued bins the
// untangling pass writes directly: DC carries the signal sum, Nyquist
// the alternating sum, both with zero imaginary part.
func TestRFFTConjugateSymmetryBins(t *testing.T) {
	r := rng.New(12)
	x := make([]float64, 256)
	var sum, alt float64
	for i := range x {
		x[i] = r.Norm()
		sum += x[i]
		if i%2 == 0 {
			alt += x[i]
		} else {
			alt -= x[i]
		}
	}
	bins, err := rfftFresh(x)
	if err != nil {
		t.Fatal(err)
	}
	if imag(bins[0]) != 0 || imag(bins[128]) != 0 {
		t.Fatalf("DC/Nyquist bins not purely real: %v, %v", bins[0], bins[128])
	}
	if math.Abs(real(bins[0])-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
		t.Fatalf("DC bin %v, want signal sum %v", real(bins[0]), sum)
	}
	if math.Abs(real(bins[128])-alt) > 1e-9*math.Max(1, math.Abs(alt)) {
		t.Fatalf("Nyquist bin %v, want alternating sum %v", real(bins[128]), alt)
	}
}

// TestRFFTInto pins the no-alloc contract: a reused destination buffer
// yields bit-identical results to a fresh destination, and the steady-state
// loop performs zero allocations.
func TestRFFTInto(t *testing.T) {
	r := rng.New(13)
	x := make([]float64, 512)
	for i := range x {
		x[i] = r.Norm()
	}
	want, err := rfftFresh(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, len(x)/2+1)
	for rep := 0; rep < 3; rep++ {
		got, err := RFFTInto(dst, x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("rep %d bin %d: reused buffer %v != fresh %v", rep, k, got[k], want[k])
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := RFFTInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RFFTInto allocates %v times per call, want 0", allocs)
	}
	if _, err := RFFTInto(make([]complex128, 4), x); err == nil {
		t.Error("undersized destination accepted")
	}
	if _, err := RFFTInto(dst, make([]float64, 12)); err == nil {
		t.Error("non-power-of-two input accepted")
	}
	if _, err := RFFTInto(dst, nil); err == nil {
		t.Error("empty input accepted")
	}
}

// FuzzRFFT feeds arbitrary byte strings to the packed real FFT as
// float64 samples and checks the two invariants the hot path relies
// on: agreement with the complex transform within rfftUlpBound, and
// bit-identical results when the destination buffer is reused. Wired
// into `make chaos`.
func FuzzRFFT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 64*8)
	r := rng.New(99)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(r.Norm()))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			t.Skip()
		}
		n := 2
		for 2*n*8 <= len(data) && n < 4096 {
			n *= 2
		}
		x := make([]float64, n)
		for i := range x {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			// The agreement contract is stated for finite, sane inputs:
			// NaN/Inf poison every bin of both transforms and huge
			// magnitudes overflow |X|^2 downstream, so clamp them out
			// rather than skipping the whole case.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = 0
			}
			x[i] = v
		}
		want := checkRFFTAgainstFFT(t, x)
		dst := make([]complex128, n/2+1)
		for rep := 0; rep < 2; rep++ {
			got, err := RFFTInto(dst, x)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d rep %d bin %d: reused %v != fresh %v", n, rep, k, got[k], want[k])
				}
			}
		}
	})
}

func TestHannWindow(t *testing.T) {
	p, err := PlanFor(STFTConfig{FFTSize: 8, Hop: 8}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := p.window
	if w[0] != 0 {
		t.Fatalf("Hann[0] = %v, want 0", w[0])
	}
	if math.Abs(w[4]-1) > 1e-12 {
		t.Fatalf("Hann midpoint = %v, want 1", w[4])
	}
	// Periodic Hann: w[k] == w[n-k].
	for k := 1; k < 8; k++ {
		if math.Abs(w[k]-w[8-k]) > 1e-12 {
			t.Fatalf("Hann asymmetric at %d", k)
		}
	}
}
