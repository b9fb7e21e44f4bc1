// Package svm implements the paper's classical queen-detection model: a
// binary support vector machine with a radial basis function kernel,
// trained with a simplified sequential minimal optimization (SMO) solver.
//
// Section V fixes the hyper-parameters: "the SVM classifier is set with a
// radial basis function kernel, a regularization parameter of 20, and a
// kernel coefficient of 10^-5". paperConfig reproduces them; GammaScale
// is available for standardized features, where the classical
// 1/(dim * variance) heuristic is the sensible default.
package svm

import (
	"errors"
	"fmt"
	"math"

	"beesim/internal/ml"
	"beesim/internal/rng"
)

// Config holds training hyper-parameters.
type Config struct {
	// C is the soft-margin regularization parameter.
	C float64
	// Gamma is the RBF kernel coefficient; <= 0 selects the "scale"
	// heuristic 1 / (dim * mean feature variance).
	Gamma float64
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses is the number of consecutive alpha-stable sweeps that
	// ends training.
	MaxPasses int
	// MaxIters caps total sweeps as a safety net.
	MaxIters int
	// Seed drives the SMO partner selection.
	Seed uint64
}

// paperConfig returns the hyper-parameters of Section V (C = 20,
// gamma = 1e-5), intended for raw (unstandardized) mel features.
func paperConfig() Config {
	return Config{C: 20, Gamma: 1e-5, Tol: 1e-3, MaxPasses: 5, MaxIters: 200, Seed: 1}
}

// ScaleConfig returns C = 20 with the gamma-scale heuristic, the right
// choice after ml.Scaler standardization.
func ScaleConfig() Config {
	cfg := paperConfig()
	cfg.Gamma = 0
	return cfg
}

// Model is a trained binary SVM. Labels are 0 and 1 externally, mapped to
// -1/+1 internally.
type Model struct {
	vectors [][]float64
	alphaY  []float64 // alpha_i * y_i for each support vector
	b       float64
	gamma   float64
}

// Train fits the SVM on a binary dataset (labels 0/1).
func Train(d *ml.Dataset, cfg Config) (*Model, error) {
	if d == nil || d.Len() == 0 {
		return nil, errors.New("svm: empty dataset")
	}
	if d.Classes() > 2 {
		return nil, fmt.Errorf("svm: binary model got %d classes", d.Classes())
	}
	if cfg.C <= 0 {
		return nil, errors.New("svm: C must be positive")
	}
	if cfg.MaxPasses <= 0 || cfg.MaxIters <= 0 {
		return nil, errors.New("svm: non-positive iteration limits")
	}

	n := d.Len()
	y := make([]float64, n)
	hasPos, hasNeg := false, false
	for i, label := range d.Y {
		if label == 1 {
			y[i] = 1
			hasPos = true
		} else {
			y[i] = -1
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		return nil, errors.New("svm: training data has a single class")
	}

	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = scaleGamma(d)
	}

	// Precompute the kernel matrix; corpus sizes here are modest
	// (the paper's full set is 1647 clips -> 21 MB, fine).
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		k[i][i] = 1
		for j := i + 1; j < n; j++ {
			v := rbf(d.X[i], d.X[j], gamma)
			k[i][j], k[j][i] = v, v
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	r := rng.New(cfg.Seed)

	f := func(i int) float64 {
		sum := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				sum += alpha[j] * y[j] * k[i][j]
			}
		}
		return sum
	}

	passes, iters := 0, 0
	for passes < cfg.MaxPasses && iters < cfg.MaxIters {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if (y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) ||
				(y[i]*ei > cfg.Tol && alpha[i] > 0) {
				j := r.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - y[j]
				aiOld, ajOld := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, ajOld-aiOld)
					hi = math.Min(cfg.C, cfg.C+ajOld-aiOld)
				} else {
					lo = math.Max(0, aiOld+ajOld-cfg.C)
					hi = math.Min(cfg.C, aiOld+ajOld)
				}
				if lo == hi {
					continue
				}
				eta := 2*k[i][j] - k[i][i] - k[j][j]
				if eta >= 0 {
					continue
				}
				aj := ajOld - y[j]*(ei-ej)/eta
				if aj > hi {
					aj = hi
				}
				if aj < lo {
					aj = lo
				}
				if math.Abs(aj-ajOld) < 1e-7 {
					continue
				}
				ai := aiOld + y[i]*y[j]*(ajOld-aj)
				b1 := b - ei - y[i]*(ai-aiOld)*k[i][i] - y[j]*(aj-ajOld)*k[i][j]
				b2 := b - ej - y[i]*(ai-aiOld)*k[i][j] - y[j]*(aj-ajOld)*k[j][j]
				switch {
				case ai > 0 && ai < cfg.C:
					b = b1
				case aj > 0 && aj < cfg.C:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				alpha[i], alpha[j] = ai, aj
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iters++
	}

	// Keep only the support vectors.
	m := &Model{b: b, gamma: gamma}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			m.vectors = append(m.vectors, d.X[i])
			m.alphaY = append(m.alphaY, alpha[i]*y[i])
		}
	}
	if len(m.vectors) == 0 {
		return nil, errors.New("svm: training produced no support vectors")
	}
	return m, nil
}

// scaleGamma implements the "scale" heuristic: 1 / (dim * mean variance).
func scaleGamma(d *ml.Dataset) float64 {
	dim := d.Dim()
	n := float64(d.Len())
	var totalVar float64
	for j := 0; j < dim; j++ {
		var mean, sq float64
		for _, row := range d.X {
			mean += row[j]
		}
		mean /= n
		for _, row := range d.X {
			diff := row[j] - mean
			sq += diff * diff
		}
		totalVar += sq / n
	}
	meanVar := totalVar / float64(dim)
	if meanVar == 0 {
		meanVar = 1
	}
	return 1 / (float64(dim) * meanVar)
}

func rbf(a, b []float64, gamma float64) float64 {
	var d2 float64
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-gamma * d2)
}

// Decision returns the signed decision value for x (positive = class 1).
func (m *Model) Decision(x []float64) float64 {
	sum := m.b
	for i, v := range m.vectors {
		sum += m.alphaY[i] * rbf(v, x, m.gamma)
	}
	return sum
}

// Predict implements ml.Classifier.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return 0
}

// NumSupportVectors returns the size of the support set.
func (m *Model) NumSupportVectors() int { return len(m.vectors) }

// Gamma returns the kernel coefficient actually used (after the scale
// heuristic is resolved).
func (m *Model) Gamma() float64 { return m.gamma }

// FLOPs estimates the arithmetic cost of one prediction: each support
// vector costs ~3*dim operations (diff, square, accumulate) plus an exp.
func (m *Model) FLOPs() float64 {
	if len(m.vectors) == 0 {
		return 0
	}
	dim := float64(len(m.vectors[0]))
	return float64(len(m.vectors)) * (3*dim + 20)
}

var _ ml.Classifier = (*Model)(nil)
