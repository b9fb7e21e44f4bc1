package stats

import (
	"math"
	"testing"
	"testing/quick"

	"beesim/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineAgainstDirect(t *testing.T) {
	xs := []float64{2.11, 2.14, 2.15, 2.13, 2.14, 2.16, 2.12}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != len(xs) {
		t.Fatalf("N = %d, want %d", o.N(), len(xs))
	}
	m := 0.0
	for _, x := range xs {
		m += x / float64(len(xs))
	}
	if !almostEq(o.Mean(), m, 1e-12) {
		t.Errorf("mean = %v, want %v", o.Mean(), m)
	}
	direct := 0.0
	for _, x := range xs {
		direct += (x - m) * (x - m)
	}
	direct /= float64(len(xs) - 1)
	if !almostEq(o.Var(), direct, 1e-12) {
		t.Errorf("var = %v, want %v", o.Var(), direct)
	}
	if o.Min() != 2.11 || o.Max() != 2.16 {
		t.Errorf("min/max = %v/%v, want 2.11/2.16", o.Min(), o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.StdDev() != 0 {
		t.Fatal("zero-value Online must report zeros")
	}
	o.Add(5)
	if o.Var() != 0 {
		t.Fatalf("single observation variance = %v, want 0", o.Var())
	}
	if o.Mean() != 5 || o.Min() != 5 || o.Max() != 5 {
		t.Fatal("single observation summary wrong")
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) + 2
		r := rng.New(seed)
		var whole, left, right Online
		for i := 0; i < n; i++ {
			x := r.Gaussian(10, 3)
			whole.Add(x)
			if i < n/2 {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(&right)
		return left.N() == whole.N() &&
			almostEq(left.Mean(), whole.Mean(), 1e-9) &&
			almostEq(left.Var(), whole.Var(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {100, 10}, {25, 3.25},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile did not error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative percentile did not error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 did not error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestCrossovers(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{2, 2, 2, 2, 2} // a crosses b between x=1 and x=2 (equality at 2)
	cs, err := Crossovers(xs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("crossovers = %d, want 1 (%v)", len(cs), cs)
	}
	if !almostEq(cs[0].X, 2, 1e-12) {
		t.Fatalf("crossover at %v, want 2", cs[0].X)
	}
}

func TestCrossoversNone(t *testing.T) {
	xs := []float64{0, 1, 2}
	a := []float64{5, 6, 7}
	b := []float64{1, 2, 3}
	cs, err := Crossovers(xs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Fatalf("unexpected crossovers %v", cs)
	}
}

func TestCrossoversErrors(t *testing.T) {
	if _, err := Crossovers([]float64{0, 0}, []float64{1, 2}, []float64{2, 1}); err == nil {
		t.Error("non-increasing xs did not error")
	}
	if _, err := Crossovers([]float64{0}, []float64{1, 2}, []float64{2, 1}); err == nil {
		t.Error("mismatched lengths did not error")
	}
}
