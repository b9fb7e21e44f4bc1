package cnn

import (
	"fmt"
	"math"

	"beesim/internal/rng"
)

// conv2D is a same- or valid-padded 2D convolution with square kernels.
type conv2D struct {
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	weight    *Param // [outC][inC][k][k]
	bias      *Param // [outC]
	input     *Tensor
	out, dx   *Tensor
	// colLo[kw], colHi[kw] bound the output columns whose tap kw lands
	// inside the current input's width.
	colLo, colHi []int
}

// newConv2D creates a convolution with He-normal initialization.
func newConv2D(inC, outC, kernel, stride, pad int, r *rng.Source) *conv2D {
	c := &conv2D{InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		colLo: make([]int, kernel), colHi: make([]int, kernel)}
	c.weight = newParam(outC * inC * kernel * kernel)
	c.bias = newParam(outC)
	std := math.Sqrt(2.0 / float64(inC*kernel*kernel))
	for i := range c.weight.Data {
		c.weight.Data[i] = r.Gaussian(0, std)
	}
	return c
}

func (c *conv2D) outSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.Kernel)/c.Stride + 1
	ow := (w+2*c.Pad-c.Kernel)/c.Stride + 1
	return oh, ow
}

// taps returns the kernel taps [k0, k1) that land inside an input of
// length n for output coordinate o; the range is empty when k1 <= k0.
func (c *conv2D) taps(o, n int) (k0, k1 int) {
	i0 := o*c.Stride - c.Pad
	return max(0, -i0), min(c.Kernel, n-i0)
}

// Forward implements Layer. Each output row starts at the bias and takes
// one pass per kernel tap, in (ic, kh, kw) order, over the columns that
// tap reaches: every output adds its products in the same order as a
// per-output loop over the taps would.
func (c *conv2D) Forward(x *Tensor) *Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("cnn: conv expects %d channels, got %d", c.InC, x.C))
	}
	c.input = x
	oh, ow := c.outSize(x.H, x.W)
	c.out = reuse(c.out, c.OutC, oh, ow)
	k, s := c.Kernel, c.Stride
	for kw := range k {
		// Columns ox with 0 <= ox*s + kw - Pad < x.W.
		lo, hi := 0, 0
		if d := c.Pad - kw; d > 0 {
			lo = (d + s - 1) / s
		}
		if d := x.W - 1 + c.Pad - kw; d >= 0 {
			hi = min(ow, d/s+1)
		}
		c.colLo[kw], c.colHi[kw] = lo, hi
	}
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.Data[oc]
		for oy := 0; oy < oh; oy++ {
			orow := c.out.Data[(oc*oh+oy)*ow:][:ow]
			for i := range orow {
				orow[i] = b
			}
			kh0, kh1 := c.taps(oy, x.H)
			for ic := 0; ic < c.InC; ic++ {
				w := c.weight.Data[(oc*c.InC+ic)*k*k:][:k*k]
				for kh := kh0; kh < kh1; kh++ {
					xrow := x.Data[(ic*x.H+oy*s+kh-c.Pad)*x.W:][:x.W]
					for kw, wv := range w[kh*k : (kh+1)*k] {
						lo, hi := c.colLo[kw], c.colHi[kw]
						ix := lo*s + kw - c.Pad
						for ox := lo; ox < hi; ox++ {
							orow[ox] += wv * xrow[ix]
							ix += s
						}
					}
				}
			}
		}
	}
	return c.out
}

// Backward implements Layer. It visits outputs in (oc, oy, ox) order and
// skips zero gradients, so every weight-grad, bias-grad and dx element
// accumulates its terms in the same order as a per-tap loop would.
func (c *conv2D) Backward(grad *Tensor) *Tensor {
	x := c.input
	c.dx = reuse(c.dx, x.C, x.H, x.W)
	clear(c.dx.Data)
	k, s := c.Kernel, c.Stride
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < grad.H; oy++ {
			kh0, kh1 := c.taps(oy, x.H)
			for ox, g := range grad.Data[(oc*grad.H+oy)*grad.W:][:grad.W] {
				if g == 0 {
					continue
				}
				c.bias.Grad[oc] += g
				kw0, kw1 := c.taps(ox, x.W)
				if kw0 >= kw1 {
					continue
				}
				ix := ox*s - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					for kh := kh0; kh < kh1; kh++ {
						row := (ic*x.H+oy*s+kh-c.Pad)*x.W + ix
						xs := x.Data[row+kw0 : row+kw1]
						dxs := c.dx.Data[row+kw0 : row+kw1][:len(xs)]
						wi := ((oc*c.InC+ic)*k + kh) * k
						ws := c.weight.Data[wi+kw0 : wi+kw1][:len(xs)]
						wgs := c.weight.Grad[wi+kw0 : wi+kw1][:len(xs)]
						for i, xv := range xs {
							wgs[i] += g * xv
							dxs[i] += g * ws[i]
						}
					}
				}
			}
		}
	}
	return c.dx
}

// Params implements Layer.
func (c *conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// FLOPs implements Layer: 2 ops per multiply-accumulate.
func (c *conv2D) FLOPs(_, h, w int) (float64, int, int, int) {
	oh, ow := c.outSize(h, w)
	per := float64(2 * c.InC * c.Kernel * c.Kernel)
	return per * float64(c.OutC*oh*ow), c.OutC, oh, ow
}

// relu is the rectified linear activation.
type relu struct {
	mask    []bool
	out, dx *Tensor
}

// Forward implements Layer.
func (r *relu) Forward(x *Tensor) *Tensor {
	r.out = reuse(r.out, x.C, x.H, x.W)
	if len(r.mask) != len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		r.mask[i] = !(v <= 0) // NaN passes through
		if !r.mask[i] {
			v = 0
		}
		r.out.Data[i] = v
	}
	return r.out
}

// Backward implements Layer.
func (r *relu) Backward(grad *Tensor) *Tensor {
	r.dx = reuse(r.dx, grad.C, grad.H, grad.W)
	for i, g := range grad.Data {
		if !r.mask[i] {
			g = 0
		}
		r.dx.Data[i] = g
	}
	return r.dx
}

// Params implements Layer.
func (r *relu) Params() []*Param { return nil }

// FLOPs implements Layer.
func (r *relu) FLOPs(c, h, w int) (float64, int, int, int) {
	return float64(c * h * w), c, h, w
}

// maxPool2 is a 2x2 max pooling with stride 2. Odd trailing rows/columns
// are dropped (floor semantics).
type maxPool2 struct {
	input   *Tensor
	argmax  []int // flat input index chosen per output element
	out, dx *Tensor
}

// Forward implements Layer.
func (p *maxPool2) Forward(x *Tensor) *Tensor {
	oh, ow := x.H/2, x.W/2
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("cnn: input %dx%d too small to pool", x.H, x.W))
	}
	p.input = x
	p.out = reuse(p.out, x.C, oh, ow)
	if len(p.argmax) != len(p.out.Data) {
		p.argmax = make([]int, len(p.out.Data))
	}
	o := 0
	for c := 0; c < x.C; c++ {
		for oy := 0; oy < oh; oy++ {
			top := (c*x.H + 2*oy) * x.W
			for ox := 0; ox < ow; ox++ {
				i := top + 2*ox
				// A window with no value above -Inf (all -Inf or
				// NaN) keeps its first element, so its gradient
				// stays inside the window.
				best := math.Inf(-1)
				bestIdx := i
				for _, j := range [4]int{i, i + 1, i + x.W, i + x.W + 1} {
					if v := x.Data[j]; v > best {
						best, bestIdx = v, j
					}
				}
				p.out.Data[o] = best
				p.argmax[o] = bestIdx
				o++
			}
		}
	}
	return p.out
}

// Backward implements Layer.
func (p *maxPool2) Backward(grad *Tensor) *Tensor {
	p.dx = reuse(p.dx, p.input.C, p.input.H, p.input.W)
	clear(p.dx.Data)
	for i, g := range grad.Data {
		p.dx.Data[p.argmax[i]] += g
	}
	return p.dx
}

// Params implements Layer.
func (p *maxPool2) Params() []*Param { return nil }

// FLOPs implements Layer.
func (p *maxPool2) FLOPs(c, h, w int) (float64, int, int, int) {
	return float64(c * h * w), c, h / 2, w / 2
}

// dense flattens its input and applies a fully connected map to n
// outputs (returned as an n x 1 x 1 tensor).
type dense struct {
	In, Out int
	weight  *Param // [out][in]
	bias    *Param
	input   *Tensor
	out, dx *Tensor
}

// newDense creates a fully connected layer with He initialization.
func newDense(in, out int, r *rng.Source) *dense {
	d := &dense{In: in, Out: out}
	d.weight = newParam(in * out)
	d.bias = newParam(out)
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.weight.Data {
		d.weight.Data[i] = r.Gaussian(0, std)
	}
	return d
}

// Forward implements Layer.
func (d *dense) Forward(x *Tensor) *Tensor {
	if len(x.Data) != d.In {
		panic(fmt.Sprintf("cnn: dense expects %d inputs, got %d", d.In, len(x.Data)))
	}
	d.input = x
	d.out = reuse(d.out, d.Out, 1, 1)
	for o := 0; o < d.Out; o++ {
		sum := d.bias.Data[o]
		row := d.weight.Data[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			sum += row[i] * v
		}
		d.out.Data[o] = sum
	}
	return d.out
}

// Backward implements Layer.
func (d *dense) Backward(grad *Tensor) *Tensor {
	d.dx = reuse(d.dx, d.input.C, d.input.H, d.input.W)
	dx := d.dx
	clear(dx.Data)
	for o := 0; o < d.Out; o++ {
		g := grad.Data[o]
		d.bias.Grad[o] += g
		row := d.weight.Data[o*d.In : (o+1)*d.In]
		gradRow := d.weight.Grad[o*d.In : (o+1)*d.In]
		for i, v := range d.input.Data {
			gradRow[i] += g * v
			dx.Data[i] += g * row[i]
		}
	}
	return dx
}

// Params implements Layer.
func (d *dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// FLOPs implements Layer.
func (d *dense) FLOPs(_, _, _ int) (float64, int, int, int) {
	return float64(2 * d.In * d.Out), d.Out, 1, 1
}

// residual is a ResNet-style identity block: out = ReLU(x + g(x)) where
// g is conv-ReLU-conv with channel-preserving 3x3 kernels — the
// structural idea of the paper's ResNet18 at a size a Raspberry Pi model
// sweep can afford.
type residual struct {
	conv1, conv2 *conv2D
	relu1        *relu
	preAct       *Tensor // x + g(x), for the outer ReLU mask
	out          *Tensor
	dSum         *Tensor // gradient at x + g(x), then at x
}

// newResidual builds a residual block over ch channels.
func newResidual(ch int, r *rng.Source) *residual {
	return &residual{
		conv1: newConv2D(ch, ch, 3, 1, 1, r),
		conv2: newConv2D(ch, ch, 3, 1, 1, r),
		relu1: &relu{},
	}
}

// Forward implements Layer.
func (b *residual) Forward(x *Tensor) *Tensor {
	g := b.conv2.Forward(b.relu1.Forward(b.conv1.Forward(x)))
	if !g.SameShape(x) {
		panic("cnn: residual branch changed shape")
	}
	b.preAct = reuse(b.preAct, x.C, x.H, x.W)
	b.out = reuse(b.out, x.C, x.H, x.W)
	for i, v := range x.Data {
		sum := v + g.Data[i]
		b.preAct.Data[i] = sum
		if sum <= 0 {
			sum = 0
		}
		b.out.Data[i] = sum
	}
	return b.out
}

// Backward implements Layer.
func (b *residual) Backward(grad *Tensor) *Tensor {
	// Through the outer ReLU.
	b.dSum = reuse(b.dSum, grad.C, grad.H, grad.W)
	dSum := b.dSum
	for i, g := range grad.Data {
		if b.preAct.Data[i] <= 0 {
			g = 0
		}
		dSum.Data[i] = g
	}
	// Branch gradient.
	dBranch := b.conv1.Backward(b.relu1.Backward(b.conv2.Backward(dSum)))
	// Skip connection adds the sum gradient directly.
	for i := range dSum.Data {
		dSum.Data[i] += dBranch.Data[i]
	}
	return dSum
}

// Params implements Layer.
func (b *residual) Params() []*Param {
	return append(b.conv1.Params(), b.conv2.Params()...)
}

// FLOPs implements Layer.
func (b *residual) FLOPs(c, h, w int) (float64, int, int, int) {
	f1, c1, h1, w1 := b.conv1.FLOPs(c, h, w)
	fr, _, _, _ := b.relu1.FLOPs(c1, h1, w1)
	f2, c2, h2, w2 := b.conv2.FLOPs(c1, h1, w1)
	// plus the elementwise sum and outer ReLU
	return f1 + fr + f2 + 2*float64(c2*h2*w2), c2, h2, w2
}
