package cnn

import (
	"fmt"
	"math"
	"testing"

	"beesim/internal/ml"
	"beesim/internal/rng"
)

// refConvForward is the direct convolution the kernels replace: one sum
// per output over its taps in (ic, kh, kw) order, bounds-tested per tap.
func refConvForward(c *conv2D, x *Tensor) *Tensor {
	oh, ow := c.outSize(x.H, x.W)
	out := NewTensor(c.OutC, oh, ow)
	k := c.Kernel
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := c.bias.Data[oc]
				for ic := 0; ic < c.InC; ic++ {
					for kh := 0; kh < k; kh++ {
						iy := oy*c.Stride + kh - c.Pad
						if iy < 0 || iy >= x.H {
							continue
						}
						for kw := 0; kw < k; kw++ {
							ix := ox*c.Stride + kw - c.Pad
							if ix < 0 || ix >= x.W {
								continue
							}
							sum += c.weight.Data[((oc*c.InC+ic)*k+kh)*k+kw] * x.Data[(ic*x.H+iy)*x.W+ix]
						}
					}
				}
				out.Data[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return out
}

// refConvBackward is the matching direct backward pass: it accumulates
// into c's parameter grads and returns dx.
func refConvBackward(c *conv2D, x, grad *Tensor) *Tensor {
	dx := NewTensor(x.C, x.H, x.W)
	k := c.Kernel
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < grad.H; oy++ {
			for ox := 0; ox < grad.W; ox++ {
				g := grad.Data[(oc*grad.H+oy)*grad.W+ox]
				if g == 0 {
					continue
				}
				c.bias.Grad[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for kh := 0; kh < k; kh++ {
						iy := oy*c.Stride + kh - c.Pad
						if iy < 0 || iy >= x.H {
							continue
						}
						for kw := 0; kw < k; kw++ {
							ix := ox*c.Stride + kw - c.Pad
							if ix < 0 || ix >= x.W {
								continue
							}
							idx := ((oc*c.InC+ic)*k+kh)*k + kw
							c.weight.Grad[idx] += g * x.Data[(ic*x.H+iy)*x.W+ix]
							dx.Data[(ic*x.H+iy)*x.W+ix] += g * c.weight.Data[idx]
						}
					}
				}
			}
		}
	}
	return dx
}

// sameBits reports the first index where a and b differ in any bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// randomConv builds a convolution with random weights, biases and
// already-accumulated grads, as mid-batch.
func randomConv(inC, outC, k, s, pad int, seed uint64) *conv2D {
	r := rng.New(seed)
	c := newConv2D(inC, outC, k, s, pad, r)
	for _, p := range c.Params() {
		for i := range p.Data {
			p.Data[i] = r.Norm()
			p.Grad[i] = r.Norm()
		}
	}
	return c
}

func TestConvKernelsMatchDirectLoopsBitForBit(t *testing.T) {
	shapes := []struct{ h, w int }{{7, 9}, {5, 6}, {8, 8}, {3, 11}}
	for _, k := range []int{1, 3, 5} {
		for _, s := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, ch := range [][2]int{{1, 1}, {2, 3}, {3, 2}} {
					for _, sh := range shapes {
						if sh.h+2*pad < k || sh.w+2*pad < k {
							continue
						}
						name := fmt.Sprintf("k%d_s%d_p%d_c%dx%d_%dx%d", k, s, pad, ch[0], ch[1], sh.h, sh.w)
						t.Run(name, func(t *testing.T) {
							checkConvAgainstReference(t, ch[0], ch[1], k, s, pad, sh.h, sh.w)
						})
					}
				}
			}
		}
	}
}

func checkConvAgainstReference(t *testing.T, inC, outC, k, s, pad, h, w int) {
	got, want := randomConv(inC, outC, k, s, pad, 7), randomConv(inC, outC, k, s, pad, 7)
	r := rng.New(11)
	x := NewTensor(inC, h, w)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	y, yRef := got.Forward(x), refConvForward(want, x)
	if i, ok := sameBits(y.Data, yRef.Data); !ok {
		t.Fatalf("forward differs at %d", i)
	}
	// Gradients with zeros mixed in, including a whole zero output row.
	grad := NewTensor(y.C, y.H, y.W)
	for i := range grad.Data {
		if r.Float64() < 0.4 {
			continue
		}
		grad.Data[i] = r.Norm()
	}
	clear(grad.Data[:y.W])
	dx, dxRef := got.Backward(grad), refConvBackward(want, x, grad)
	if i, ok := sameBits(dx.Data, dxRef.Data); !ok {
		t.Fatalf("dx differs at %d", i)
	}
	if i, ok := sameBits(got.weight.Grad, want.weight.Grad); !ok {
		t.Fatalf("weight grad differs at %d", i)
	}
	if i, ok := sameBits(got.bias.Grad, want.bias.Grad); !ok {
		t.Fatalf("bias grad differs at %d", i)
	}
}

// randomImage fills a size x size single-channel image from seed.
func randomImage(size int, seed uint64) *Tensor {
	r := rng.New(seed)
	x := NewTensor(1, size, size)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	return x
}

func paramGrads(n *Network) [][]float64 {
	var out [][]float64
	for _, p := range n.params {
		out = append(out, p.Grad)
	}
	return out
}

// TestLayerBuffersDoNotLeakBetweenExamples runs a forward pass on one
// image, then a full step on another: the grads must be those of a fresh
// network that only saw the second image.
func TestLayerBuffersDoNotLeakBetweenExamples(t *testing.T) {
	cfg := Config{InputSize: 20, Classes: 2, BaseChannels: 3, Seed: 4}
	used, _ := New(cfg)
	fresh, _ := New(cfg)
	a, b := randomImage(20, 1), randomImage(20, 2)
	used.lossAndGrad(a, 0)
	for _, p := range used.params {
		clear(p.Grad)
	}
	used.Forward(a)
	lossUsed := used.lossAndGrad(b, 1)
	lossFresh := fresh.lossAndGrad(b, 1)
	if lossUsed != lossFresh {
		t.Fatalf("loss %v after reuse, %v fresh", lossUsed, lossFresh)
	}
	gu, gf := paramGrads(used), paramGrads(fresh)
	for i := range gu {
		if j, ok := sameBits(gu[i], gf[i]); !ok {
			t.Fatalf("param %d grad differs at %d after reuse", i, j)
		}
	}
}

// TestLayerBuffersFollowShapeChanges feeds one conv-ReLU-pool stack two
// input shapes in turn; the second pass must match a fresh stack's.
func TestLayerBuffersFollowShapeChanges(t *testing.T) {
	stack := func() []Layer {
		return []Layer{randomConv(1, 2, 3, 1, 1, 3), &relu{}, &maxPool2{}}
	}
	run := func(layers []Layer, x *Tensor) (y, dx *Tensor) {
		y = x
		for _, l := range layers {
			y = l.Forward(y)
		}
		g := NewTensor(y.C, y.H, y.W)
		for i := range g.Data {
			g.Data[i] = float64(i%3) - 1
		}
		dx = g
		for i := len(layers) - 1; i >= 0; i-- {
			dx = layers[i].Backward(dx)
		}
		return y, dx
	}
	used := stack()
	run(used, randomImage(9, 1))
	x := randomImage(6, 2)
	y, dx := run(used, x)
	yf, dxf := run(stack(), x)
	if _, ok := sameBits(y.Data, yf.Data); !ok || !y.SameShape(yf) {
		t.Fatal("forward after a shape change differs from a fresh stack")
	}
	if _, ok := sameBits(dx.Data, dxf.Data); !ok || !dx.SameShape(x) {
		t.Fatal("backward after a shape change differs from a fresh stack")
	}
}

// TestTrainUnaffectedByEvaluation trains twice from one seed, evaluating
// the model between epochs in one run: the weights must come out equal.
func TestTrainUnaffectedByEvaluation(t *testing.T) {
	examples := stripes(t, 24, 16, 5)
	test := stripes(t, 12, 16, 6)
	var flat ml.Dataset
	for _, ex := range test {
		flat.X = append(flat.X, ex.Image.Data)
		flat.Y = append(flat.Y, ex.Label)
	}
	train := func(evaluate bool) *Network {
		net, _ := New(Config{InputSize: 16, Classes: 2, BaseChannels: 2, Seed: 8})
		cfg := TrainConfig{Epochs: 3, BatchSize: 5, LR: 0.01, Momentum: 0.9, Seed: 9}
		if evaluate {
			cfg.OnEpoch = func(int, float64) { ml.EvaluateBinary(net, &flat) }
		}
		if err := net.Train(examples, cfg); err != nil {
			t.Fatal(err)
		}
		return net
	}
	if a, b := weightsHash(train(false)), weightsHash(train(true)); a != b {
		t.Fatalf("weights %s without evaluation, %s with", a, b)
	}
}

// TestLossAndGradSteadyStateAllocs holds a training step, once every
// layer has its buffers, to no heap allocation.
func TestLossAndGradSteadyStateAllocs(t *testing.T) {
	net, _ := New(Config{InputSize: 20, Classes: 2, BaseChannels: 4, Seed: 1})
	x := randomImage(20, 3)
	net.lossAndGrad(x, 1)
	if allocs := testing.AllocsPerRun(20, func() { net.lossAndGrad(x, 1) }); allocs != 0 {
		t.Fatalf("lossAndGrad allocates %v times per call, want 0", allocs)
	}
}
