package ml

import (
	"math"
	"testing"
)

func toyData(t *testing.T) *Dataset {
	t.Helper()
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}
	y := []int{0, 0, 0, 0, 1, 1, 1, 1}
	d, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Error("ragged features accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{-1}); err == nil {
		t.Error("negative label accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := toyData(t)
	if d.Len() != 8 || d.Dim() != 2 || d.Classes() != 2 {
		t.Fatalf("len/dim/classes = %d/%d/%d", d.Len(), d.Dim(), d.Classes())
	}
}

func TestSplit(t *testing.T) {
	d := toyData(t)
	train, test, err := d.Split(0.75, 42)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 6 || test.Len() != 2 {
		t.Fatalf("split sizes = %d/%d, want 6/2", train.Len(), test.Len())
	}
	// Same seed gives the same split.
	train2, _, err := d.Split(0.75, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train.Y {
		if train.Y[i] != train2.Y[i] {
			t.Fatal("same-seed splits differ")
		}
	}
	// All examples accounted for exactly once.
	seen := map[float64]int{}
	for _, row := range train.X {
		seen[row[0]*10+row[1]]++
	}
	for _, row := range test.X {
		seen[row[0]*10+row[1]]++
	}
	if len(seen) != 8 {
		t.Fatalf("split lost or duplicated rows: %d distinct", len(seen))
	}
}

func TestSplitErrors(t *testing.T) {
	d := toyData(t)
	for _, frac := range []float64{0, 1, -0.2, 1.4, 0.01} {
		if _, _, err := d.Split(frac, 1); err == nil {
			t.Errorf("split fraction %v accepted", frac)
		}
	}
}

func TestScaler(t *testing.T) {
	d := toyData(t)
	s := FitScaler(d)
	scaled := s.TransformAll(d)
	// Each feature has mean ~0 and variance ~1 after scaling.
	for j := 0; j < d.Dim(); j++ {
		var mean, varsum float64
		for _, row := range scaled.X {
			mean += row[j]
		}
		mean /= float64(d.Len())
		for _, row := range scaled.X {
			varsum += (row[j] - mean) * (row[j] - mean)
		}
		varsum /= float64(d.Len())
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d scaled mean = %v", j, mean)
		}
		if math.Abs(varsum-1) > 1e-9 {
			t.Errorf("feature %d scaled variance = %v", j, varsum)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	d, err := NewDataset([][]float64{{5, 1}, {5, 2}, {5, 3}}, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := FitScaler(d)
	out := s.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Fatalf("constant feature scaled to %v, want 0", out[0])
	}
	if math.IsNaN(out[1]) || math.IsInf(out[1], 0) {
		t.Fatalf("scaling produced %v", out[1])
	}
}

// threshold is a trivial classifier: class 1 when x[0] >= 2.
type threshold struct{}

func (threshold) Predict(x []float64) int {
	if x[0] >= 2 {
		return 1
	}
	return 0
}

func TestAccuracy(t *testing.T) {
	d := toyData(t)
	if acc := Accuracy(threshold{}, d); acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(threshold{}, &Dataset{}); acc != 0 {
		t.Fatalf("accuracy on empty = %v, want 0", acc)
	}
}

func TestConfusionMatrix(t *testing.T) {
	d := toyData(t)
	cm := confusionMatrix(threshold{}, d, 2)
	if cm[0][0] != 4 || cm[1][1] != 4 || cm[0][1] != 0 || cm[1][0] != 0 {
		t.Fatalf("confusion = %v", cm)
	}
}

// flipper misclassifies class-0 examples with x[0] == 1.
type flipper struct{}

func (flipper) Predict(x []float64) int {
	if x[0] >= 1 {
		return 1
	}
	return 0
}

func TestEvaluateBinary(t *testing.T) {
	d := toyData(t)
	m := EvaluateBinary(flipper{}, d)
	// flipper: 2 false positives (the {1,0},{1,1} rows), everything else right.
	if math.Abs(m.Accuracy-0.75) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.75", m.Accuracy)
	}
	if math.Abs(m.Precision-4.0/6.0) > 1e-9 {
		t.Errorf("precision = %v, want 2/3", m.Precision)
	}
	if math.Abs(m.Recall-1) > 1e-9 {
		t.Errorf("recall = %v, want 1", m.Recall)
	}
	if m.F1 <= 0.7 || m.F1 >= 0.9 {
		t.Errorf("F1 = %v, want 0.8", m.F1)
	}
}

func TestEvaluateBinaryDegenerate(t *testing.T) {
	// All predictions negative: precision undefined -> 0, no NaN.
	d, _ := NewDataset([][]float64{{0}, {0}}, []int{1, 1})
	type never struct{ Classifier }
	_ = never{}
	m := EvaluateBinary(classifierFunc(func([]float64) int { return 0 }), d)
	if math.IsNaN(m.Precision) || math.IsNaN(m.F1) {
		t.Fatal("degenerate metrics produced NaN")
	}
	if m.Recall != 0 || m.Accuracy != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

type classifierFunc func([]float64) int

func (f classifierFunc) Predict(x []float64) int { return f(x) }
