// Package stats provides the descriptive statistics used to summarize
// beesim's measurement campaigns: online moments (Welford), percentiles
// and series crossover detection.
//
// Section IV of the paper reports the 319-routine campaign through exactly
// these summaries (mean routine length 1 m 29 s, sigma 3.5 s; mean power
// 2.14 W, sigma 0.009 W), and Figure 7's analysis hinges on locating the
// client counts where the edge and edge+cloud energy series cross.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Online accumulates count, mean and variance in one pass using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean, or 0 with no observations.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (n-1 denominator).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 with no observations.
func (o *Online) Max() float64 { return o.max }

// Sum returns n * mean, the total of all observations.
func (o *Online) Sum() float64 { return float64(o.n) * o.mean }

// Merge combines another accumulator into o (parallel Welford merge).
func (o *Online) Merge(p *Online) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *p
		return
	}
	n := o.n + p.n
	delta := p.mean - o.mean
	mean := o.mean + delta*float64(p.n)/float64(n)
	m2 := o.m2 + p.m2 + delta*delta*float64(o.n)*float64(p.n)/float64(n)
	if p.min < o.min {
		o.min = p.min
	}
	if p.max > o.max {
		o.max = p.max
	}
	o.n, o.mean, o.m2 = n, mean, m2
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns an error for empty input
// or out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Crossover is a point where series a overtakes series b (or vice versa).
type Crossover struct {
	Index int     // first index at or after which the sign flips
	X     float64 // interpolated x position of equality
}

// Crossovers returns every x position where (a - b) changes sign, with
// linear interpolation between samples. xs must be strictly increasing and
// all three slices the same length.
func Crossovers(xs, a, b []float64) ([]Crossover, error) {
	if len(xs) != len(a) || len(xs) != len(b) {
		return nil, errors.New("stats: mismatched crossover inputs")
	}
	var out []Crossover
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, errors.New("stats: x values not strictly increasing")
		}
		d0 := a[i-1] - b[i-1]
		d1 := a[i] - b[i]
		if d0 == 0 {
			continue // equality at a sample counts with the next interval
		}
		if (d0 < 0) != (d1 < 0) || d1 == 0 {
			t := d0 / (d0 - d1)
			out = append(out, Crossover{Index: i, X: xs[i-1] + t*(xs[i]-xs[i-1])})
		}
	}
	return out, nil
}
