package svm

import (
	"math"
	"testing"

	"beesim/internal/ml"
	"beesim/internal/rng"
)

// blobs builds two Gaussian clusters in dim dimensions.
func blobs(t *testing.T, n, dim int, sep float64, seed uint64) *ml.Dataset {
	t.Helper()
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, dim)
		label := i % 2
		center := -sep / 2
		if label == 1 {
			center = sep / 2
		}
		for j := range row {
			row[j] = r.Gaussian(center, 1)
		}
		x[i], y[i] = row, label
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// xorData builds the classic non-linearly-separable XOR pattern.
func xorData(t *testing.T, n int, seed uint64) *ml.Dataset {
	t.Helper()
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a := r.Range(-1, 1)
		b := r.Range(-1, 1)
		x[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainValidation(t *testing.T) {
	d := blobs(t, 20, 2, 4, 1)
	if _, err := Train(nil, ScaleConfig()); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := ScaleConfig()
	bad.C = 0
	if _, err := Train(d, bad); err == nil {
		t.Error("C=0 accepted")
	}
	bad = ScaleConfig()
	bad.MaxPasses = 0
	if _, err := Train(d, bad); err == nil {
		t.Error("MaxPasses=0 accepted")
	}
	single, _ := ml.NewDataset([][]float64{{1}, {2}}, []int{0, 0})
	if _, err := Train(single, ScaleConfig()); err == nil {
		t.Error("single-class data accepted")
	}
	three, _ := ml.NewDataset([][]float64{{1}, {2}, {3}}, []int{0, 1, 2})
	if _, err := Train(three, ScaleConfig()); err == nil {
		t.Error("3-class data accepted")
	}
}

func TestSeparableBlobs(t *testing.T) {
	train := blobs(t, 120, 4, 6, 1)
	test := blobs(t, 60, 4, 6, 2)
	m, err := Train(train, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, test); acc < 0.95 {
		t.Fatalf("separable accuracy = %v, want >= 0.95", acc)
	}
	if m.NumSupportVectors() == 0 || m.NumSupportVectors() > train.Len() {
		t.Fatalf("support vectors = %d", m.NumSupportVectors())
	}
}

func TestXORNeedsRBF(t *testing.T) {
	// The RBF kernel must solve XOR, which no linear model can.
	train := xorData(t, 300, 3)
	test := xorData(t, 150, 4)
	cfg := ScaleConfig()
	cfg.Gamma = 2 // local kernel for the unit square
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, test); acc < 0.9 {
		t.Fatalf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestDecisionSignMatchesPredict(t *testing.T) {
	d := blobs(t, 80, 3, 5, 5)
	m, err := Train(d, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.X {
		dec := m.Decision(row)
		want := 0
		if dec >= 0 {
			want = 1
		}
		if m.Predict(row) != want {
			t.Fatal("Predict disagrees with Decision sign")
		}
	}
}

func TestPaperConfigValues(t *testing.T) {
	cfg := paperConfig()
	if cfg.C != 20 {
		t.Errorf("C = %v, want 20 (paper)", cfg.C)
	}
	if cfg.Gamma != 1e-5 {
		t.Errorf("gamma = %v, want 1e-5 (paper)", cfg.Gamma)
	}
}

func TestScaleGammaHeuristic(t *testing.T) {
	d := blobs(t, 100, 8, 4, 6)
	m, err := Train(d, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// gamma = 1/(dim * meanVar); blobs have per-feature variance ~1+sep²/4,
	// so gamma should be positive and below 1/dim.
	if m.Gamma() <= 0 || m.Gamma() > 1.0/8 {
		t.Fatalf("scale gamma = %v out of expected range", m.Gamma())
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := blobs(t, 100, 3, 5, 7)
	a, err := Train(d, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSupportVectors() != b.NumSupportVectors() {
		t.Fatal("same-seed training differs")
	}
	probe := []float64{0.3, -0.2, 0.8}
	if math.Abs(a.Decision(probe)-b.Decision(probe)) > 1e-12 {
		t.Fatal("same-seed decision functions differ")
	}
}

func TestNoisyDataDoesNotOverfitToUselessness(t *testing.T) {
	// Overlapping blobs: accuracy should beat chance clearly but the
	// solver must terminate and produce a bounded support set.
	train := blobs(t, 200, 2, 2, 8)
	test := blobs(t, 100, 2, 2, 9)
	m, err := Train(train, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, test); acc < 0.7 {
		t.Fatalf("overlapping-blob accuracy = %v, want >= 0.7", acc)
	}
}

func TestFLOPsEstimate(t *testing.T) {
	d := blobs(t, 60, 10, 5, 10)
	m, err := Train(d, ScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(m.NumSupportVectors()) * (3*10 + 20)
	if m.FLOPs() != want {
		t.Fatalf("FLOPs = %v, want %v", m.FLOPs(), want)
	}
}
