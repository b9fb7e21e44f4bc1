package cnn

import (
	"math"
	"testing"

	"beesim/internal/dsp"
	"beesim/internal/rng"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if len(x.Data) != 24 {
		t.Fatalf("len(Data) = %d, want 24", len(x.Data))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("NewTensor not zeroed")
		}
	}
	if !x.SameShape(NewTensor(2, 3, 4)) || x.SameShape(NewTensor(2, 4, 3)) {
		t.Fatal("SameShape broken")
	}
	if reuse(x, 2, 3, 4) != x {
		t.Fatal("reuse reallocated a tensor of the same shape")
	}
	if y := reuse(x, 1, 3, 4); y == x || y.C != 1 || len(y.Data) != 12 {
		t.Fatal("reuse kept a tensor of another shape")
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTensor(0,1,1) did not panic")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestConvIdentityKernel(t *testing.T) {
	r := rng.New(1)
	conv := newConv2D(1, 1, 3, 1, 1, r)
	// Hand-set an identity kernel (center 1, rest 0) with zero bias.
	for i := range conv.weight.Data {
		conv.weight.Data[i] = 0
	}
	conv.weight.Data[4] = 1 // center of the 3x3
	conv.bias.Data[0] = 0
	x := NewTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	y := conv.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv altered element %d: %v", i, y.Data[i])
		}
	}
}

func TestConvOutputShape(t *testing.T) {
	r := rng.New(1)
	conv := newConv2D(3, 5, 3, 2, 1, r)
	x := NewTensor(3, 9, 9)
	y := conv.Forward(x)
	if y.C != 5 || y.H != 5 || y.W != 5 {
		t.Fatalf("conv output = %dx%dx%d, want 5x5x5", y.C, y.H, y.W)
	}
	f, oc, oh, ow := conv.FLOPs(3, 9, 9)
	if oc != 5 || oh != 5 || ow != 5 {
		t.Fatal("FLOPs shape mismatch")
	}
	if want := float64(2*3*3*3) * float64(5*5*5); f != want {
		t.Fatalf("conv FLOPs = %v, want %v", f, want)
	}
}

// numericalGradCheck verifies backprop against finite differences for a
// tiny network on one example.
func TestGradientCheck(t *testing.T) {
	r := rng.New(3)
	conv := newConv2D(1, 2, 3, 1, 1, r)
	fc := newDense(2*4*4, 2, r)
	act := &relu{}
	layers := []Layer{conv, act, fc}

	x := NewTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	label := 1

	loss := func() float64 {
		cur := x
		for _, l := range layers {
			cur = l.Forward(cur)
		}
		probs := softmax(make([]float64, 2), cur.Data)
		return -math.Log(probs[label])
	}

	// Analytic gradients.
	cur := x
	for _, l := range layers {
		cur = l.Forward(cur)
	}
	probs := softmax(make([]float64, 2), cur.Data)
	grad := NewTensor(2, 1, 1)
	copy(grad.Data, probs)
	grad.Data[label] -= 1
	g := Layer(nil)
	_ = g
	back := grad
	for i := len(layers) - 1; i >= 0; i-- {
		back = layers[i].Backward(back)
	}

	// Compare each parameter's analytic gradient with finite differences.
	const eps = 1e-6
	for li, l := range layers {
		for pi, p := range l.Params() {
			for k := 0; k < len(p.Data); k += 7 { // sample every 7th weight
				orig := p.Data[k]
				p.Data[k] = orig + eps
				up := loss()
				p.Data[k] = orig - eps
				down := loss()
				p.Data[k] = orig
				numeric := (up - down) / (2 * eps)
				if math.Abs(numeric-p.Grad[k]) > 1e-4*math.Max(1, math.Abs(numeric)) {
					t.Fatalf("layer %d param %d[%d]: analytic %v vs numeric %v",
						li, pi, k, p.Grad[k], numeric)
				}
			}
		}
	}
}

func TestReLU(t *testing.T) {
	act := &relu{}
	x := NewTensor(1, 1, 4)
	copy(x.Data, []float64{-1, 0, 2, -3})
	y := act.Forward(x)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	g := NewTensor(1, 1, 4)
	copy(g.Data, []float64{1, 1, 1, 1})
	dx := act.Backward(g)
	wantG := []float64{0, 0, 1, 0}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("relu grad = %v", dx.Data)
		}
	}
}

func TestMaxPool(t *testing.T) {
	p := &maxPool2{}
	x := NewTensor(1, 2, 4)
	copy(x.Data, []float64{1, 5, 3, 2, 4, 0, 7, 1})
	y := p.Forward(x)
	if y.H != 1 || y.W != 2 || y.Data[0] != 5 || y.Data[1] != 7 {
		t.Fatalf("pool output = %+v", y)
	}
	g := NewTensor(1, 1, 2)
	copy(g.Data, []float64{10, 20})
	dx := p.Backward(g)
	if dx.Data[1] != 10 || dx.Data[6] != 20 {
		t.Fatalf("pool grad = %v", dx.Data)
	}
	// Everything else zero.
	var sum float64
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 30 {
		t.Fatalf("pool grad sum = %v, want 30", sum)
	}
}

// TestMaxPoolNonFiniteWindowKeepsGradientInside pools a second window
// holding only -Inf and NaN: it has no maximum above -Inf, and its
// gradient must still land inside it rather than on element (0, 0, 0).
func TestMaxPoolNonFiniteWindowKeepsGradientInside(t *testing.T) {
	p := &maxPool2{}
	x := NewTensor(1, 2, 4)
	inf, nan := math.Inf(-1), math.NaN()
	copy(x.Data, []float64{1, 5, inf, nan, 4, 0, nan, inf})
	p.Forward(x)
	g := NewTensor(1, 1, 2)
	copy(g.Data, []float64{10, 20})
	dx := p.Backward(g)
	if dx.Data[1] != 10 || dx.Data[0] != 0 {
		t.Fatalf("finite window grad = %v, want 10 at its argmax only", dx.Data)
	}
	if dx.Data[2] != 20 {
		t.Fatalf("non-finite window grad = %v, want 20 at its first element (index 2)", dx.Data)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InputSize: 8, Classes: 2, BaseChannels: 4}); err == nil {
		t.Error("tiny input accepted")
	}
	if _, err := New(Config{InputSize: 32, Classes: 1, BaseChannels: 4}); err == nil {
		t.Error("single class accepted")
	}
	if _, err := New(Config{InputSize: 32, Classes: 2, BaseChannels: 0}); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestForwardShapesAcrossFigure5Sizes(t *testing.T) {
	for _, size := range []int{20, 40, 60, 100, 160} {
		net, err := New(Config{InputSize: size, Classes: 2, BaseChannels: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		x := NewTensor(1, size, size)
		logits := net.Forward(x)
		if len(logits) != 2 {
			t.Fatalf("size %d: %d logits", size, len(logits))
		}
	}
}

func TestFLOPsQuadraticInInputSide(t *testing.T) {
	// The conv stack dominates, and its FLOPs scale with pixel count.
	flops := func(size int) float64 {
		net, err := New(Config{InputSize: size, Classes: 2, BaseChannels: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return net.FLOPs()
	}
	f50, f100, f200 := flops(48), flops(96), flops(192)
	r1 := f100 / f50
	r2 := f200 / f100
	if r1 < 3.3 || r1 > 4.7 || r2 < 3.3 || r2 > 4.7 {
		t.Fatalf("FLOPs doubling ratios = %.2f, %.2f, want ~4 (quadratic)", r1, r2)
	}
}

func TestSoftmax(t *testing.T) {
	p := softmax(make([]float64, 2), []float64{1000, 1000}) // stability check
	if math.Abs(p[0]-0.5) > 1e-12 || math.IsNaN(p[0]) {
		t.Fatalf("softmax = %v", p)
	}
	p = softmax(p, []float64{0, math.Log(3)})
	if math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("softmax = %v, want [0.25 0.75]", p)
	}
}

// stripes builds a toy image dataset: class 0 has horizontal bands,
// class 1 vertical bands (a crude stand-in for spectrogram structure).
func stripes(t testing.TB, n, size int, seed uint64) []Example {
	t.Helper()
	r := rng.New(seed)
	out := make([]Example, n)
	for i := range out {
		img := NewTensor(1, size, size)
		label := i % 2
		period := 4 + r.Intn(4)
		phase := r.Intn(period)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				coord := y
				if label == 1 {
					coord = x
				}
				v := 0.0
				if (coord+phase)%period < period/2 {
					v = 1.0
				}
				img.Data[y*size+x] = v + 0.1*r.Norm()
			}
		}
		out[i] = Example{Image: img, Label: label}
	}
	return out
}

func TestTrainLearnsStripes(t *testing.T) {
	net, err := New(Config{InputSize: 16, Classes: 2, BaseChannels: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	train := stripes(t, 120, 16, 1)
	test := stripes(t, 60, 16, 2)
	var losses []float64
	cfg := TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.01, Momentum: 0.9, Seed: 3,
		OnEpoch: func(_ int, l float64) { losses = append(losses, l) }}
	if err := net.Train(train, cfg); err != nil {
		t.Fatal(err)
	}
	if len(losses) != 6 {
		t.Fatalf("epoch callback fired %d times", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	correct := 0
	for _, ex := range test {
		if net.PredictImage(ex.Image) == ex.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.9 {
		t.Fatalf("stripe accuracy = %v, want >= 0.9", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	net, _ := New(Config{InputSize: 16, Classes: 2, BaseChannels: 2, Seed: 1})
	if err := net.Train(nil, PaperTrain()); err == nil {
		t.Error("empty training set accepted")
	}
	ex := stripes(t, 4, 16, 1)
	bad := PaperTrain()
	bad.Epochs = 0
	if err := net.Train(ex, bad); err == nil {
		t.Error("zero epochs accepted")
	}
	bad = PaperTrain()
	bad.LR = 0
	if err := net.Train(ex, bad); err == nil {
		t.Error("zero LR accepted")
	}
	ex[0].Label = 7
	if err := net.Train(ex, PaperTrain()); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestPredictFlatAndImageAgree(t *testing.T) {
	net, _ := New(Config{InputSize: 16, Classes: 2, BaseChannels: 2, Seed: 4})
	r := rng.New(9)
	img := NewTensor(1, 16, 16)
	for i := range img.Data {
		img.Data[i] = r.Norm()
	}
	if net.PredictImage(img) != net.Predict(img.Data) {
		t.Fatal("flat and tensor predictions disagree")
	}
}

func TestImageFromMatrix(t *testing.T) {
	m := dsp.NewMatrix(3, 4)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	img := ImageFromMatrix(m)
	if img.C != 1 || img.H != 3 || img.W != 4 {
		t.Fatalf("image shape = %dx%dx%d", img.C, img.H, img.W)
	}
	if img.Data[1*4+2] != m.At(1, 2) {
		t.Fatal("contents differ")
	}
}

func TestNumParamsPositiveAndStable(t *testing.T) {
	count := func() int {
		net, err := New(Config{InputSize: 100, Classes: 2, BaseChannels: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range net.params {
			total += len(p.Data)
		}
		return total
	}
	// conv 1->8, conv 8->16, two 16->16 residual convs (3x3 kernels plus
	// biases) and a dense layer over 16x12x12 features to 2 logits.
	want := (8*9 + 8) + (8*16*9 + 16) + 2*(16*16*9+16) + (16*12*12*2 + 2)
	if got := count(); got != want || count() != got {
		t.Fatalf("parameter count = %d, want %d on every build", got, want)
	}
}

func TestResidualIdentityAtZeroWeights(t *testing.T) {
	r := rng.New(5)
	block := newResidual(2, r)
	// Zero the branch: out = ReLU(x).
	for _, p := range block.Params() {
		for i := range p.Data {
			p.Data[i] = 0
		}
	}
	x := NewTensor(2, 4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i%5) - 2
	}
	y := block.Forward(x)
	for i, v := range x.Data {
		want := v
		if want < 0 {
			want = 0
		}
		if y.Data[i] != want {
			t.Fatalf("residual with zero branch != ReLU(x) at %d", i)
		}
	}
}
