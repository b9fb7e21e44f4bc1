// Package dsp implements the signal-processing pipeline of Section V:
// Hann-windowed STFT through a packed real FFT, power spectrograms, the
// mel filterbank (FFT window 2048, hop 512, 128 mel bands at 22 050 Hz)
// and the bilinear resize that converts spectrograms into the CNN's
// square inputs.
//
// Every per-shape precomputation — window, butterfly tables, real-FFT
// untangling table, sparse filterbank — lives on a Plan, and PlanFor's
// memo is the package's only cache.
//
// Everything is implemented from scratch on float64/complex128; there is
// no external numerics dependency.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Determinism note: every twiddle table is generated with the exact
// incremental recurrence (w *= wStep from w = 1) the butterflies used
// inline before tables were precomputed. Regenerating them with
// per-index cmplx.Exp calls would perturb the low bits of the
// transforms and break the byte-identical-output contract, so don't.

// twiddleRun returns count successive powers of exp(i*angle), built by
// the incremental recurrence.
func twiddleRun(count int, angle float64) []complex128 {
	wStep := cmplx.Exp(complex(0, angle))
	t := make([]complex128, count)
	w := complex(1, 0)
	for k := range t {
		t[k] = w
		w *= wStep
	}
	return t
}

// butterflyTables returns the per-stage twiddle tables of an n-point
// forward transform: tables[s][k] is the k-th factor of the stage with
// butterfly size 2<<s. n must be a power of two.
func butterflyTables(n int) [][]complex128 {
	var tables [][]complex128
	for size := 2; size <= n; size <<= 1 {
		tables = append(tables, twiddleRun(size>>1, -2*math.Pi/float64(size)))
	}
	return tables
}

// untangleTable returns the untangling factors of an n-point packed
// real FFT: tw[k] = exp(-2*pi*i*k/n) for k = 0..n/4.
func untangleTable(n int) []complex128 {
	return twiddleRun(n/4+1, -2*math.Pi/float64(n))
}

// hannWindow returns the n-point periodic Hann window used for STFT
// analysis.
func hannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	return w
}

// fft computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x, building its tables on every call. The length must be
// a power of two. It is the reference the packed real FFT is tested
// against; the hot path runs butterflies over a Plan's tables instead.
func fft(x []complex128) error {
	n := len(x)
	if n == 0 {
		return errors.New("dsp: empty FFT input")
	}
	if n&(n-1) != 0 {
		return errors.New("dsp: FFT length must be a power of two")
	}
	butterflies(x, butterflyTables(n))
	return nil
}

// butterflies transforms x in place with the per-stage tables of
// butterflyTables(len(x)).
func butterflies(x []complex128, stages [][]complex128) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for s, size := 0, 2; size <= n; s, size = s+1, size<<1 {
		half := size >> 1
		t := stages[s]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * t[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// RFFTInto computes the FFT of a real signal into dst and returns the
// n/2+1 non-redundant bins dst[:n/2+1]. The input length must be a
// power of two and dst must have capacity for the bins. The contents
// of dst are fully overwritten; no other scratch is used, so a caller
// looping over frames can reuse one buffer for a zero-allocation
// steady state. The tables come from the memoized Plan of the size.
//
// Unlike a complex transform of the widened signal, RFFTInto exploits
// conjugate symmetry with the packed real-FFT algorithm: the n real
// samples fold into an n/2-point complex transform plus an O(n)
// untangling pass, halving the butterfly work. The low-order bits of
// the result therefore differ from the complex transform; the agreement
// is pinned to a tight ulp bound by TestRFFTMatchesFFT.
func RFFTInto(dst []complex128, x []float64) ([]complex128, error) {
	p, err := PlanFor(STFTConfig{FFTSize: len(x), Hop: len(x)}, 0, 0)
	if err != nil {
		return nil, err
	}
	if cap(dst) < p.bins {
		return nil, fmt.Errorf("dsp: RFFT destination capacity %d < %d bins", cap(dst), p.bins)
	}
	return p.rfft(dst[:p.bins], x), nil
}

// rfft is the packed real FFT of x, whose length is the plan's FFT
// size, into dst, which has the plan's bin count.
func (p *Plan) rfft(dst []complex128, x []float64) []complex128 {
	n := len(x)
	if n == 1 {
		dst[0] = complex(x[0], 0)
		return dst
	}
	// Pack adjacent sample pairs into one half-length complex signal:
	// z[k] = x[2k] + i*x[2k+1].
	n2 := n / 2
	z := dst[:n2]
	for k := 0; k < n2; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	butterflies(z, p.stages)
	// Untangle the packed transform Z into the real signal's spectrum:
	//   X[k] = (Z[k] + conj(Z[n2-k]))/2 - i/2 * w^k * (Z[k] - conj(Z[n2-k]))
	// with w = exp(-2*pi*i/n) and Z[n2] === Z[0]. Bins 0 and n/2 are the
	// purely real DC and Nyquist terms; interior bins pair up as
	// (k, n2-k), so the pass runs in place over dst.
	z0 := z[0]
	dst[n2] = complex(real(z0)-imag(z0), 0)
	dst[0] = complex(real(z0)+imag(z0), 0)
	tw := p.untangle
	for k := 1; k <= n2/2; k++ {
		j := n2 - k
		a, b := z[k], z[j]
		sumR, sumI := real(a)+real(b), imag(a)-imag(b)   // Z[k] + conj(Z[j])
		diffR, diffI := real(a)-real(b), imag(a)+imag(b) // Z[k] - conj(Z[j])
		w := tw[k]
		mR := real(w)*diffR - imag(w)*diffI // m = w^k * diff
		mI := real(w)*diffI + imag(w)*diffR
		dst[k] = complex(0.5*(sumR+mI), 0.5*(sumI-mR))
		// X[j] follows from the same pair: w^j = -conj(w^k), so the
		// mirrored bin reuses m with conjugated signs.
		dst[j] = complex(0.5*(sumR-mI), 0.5*(-sumI-mR))
	}
	return dst
}
