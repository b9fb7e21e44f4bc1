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
}

// newConv2D creates a convolution with He-normal initialization.
func newConv2D(inC, outC, kernel, stride, pad int, r *rng.Source) *conv2D {
	c := &conv2D{InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad}
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

func (c *conv2D) wIdx(oc, ic, kh, kw int) int {
	return ((oc*c.InC+ic)*c.Kernel+kh)*c.Kernel + kw
}

// Forward implements Layer.
func (c *conv2D) Forward(x *Tensor) *Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("cnn: conv expects %d channels, got %d", c.InC, x.C))
	}
	c.input = x
	oh, ow := c.outSize(x.H, x.W)
	out := NewTensor(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.Data[oc]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := b
				for ic := 0; ic < c.InC; ic++ {
					for kh := 0; kh < c.Kernel; kh++ {
						iy := oy*c.Stride + kh - c.Pad
						if iy < 0 || iy >= x.H {
							continue
						}
						for kw := 0; kw < c.Kernel; kw++ {
							ix := ox*c.Stride + kw - c.Pad
							if ix < 0 || ix >= x.W {
								continue
							}
							sum += c.weight.Data[c.wIdx(oc, ic, kh, kw)] * x.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *conv2D) Backward(grad *Tensor) *Tensor {
	x := c.input
	dx := NewTensor(x.C, x.H, x.W)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < grad.H; oy++ {
			for ox := 0; ox < grad.W; ox++ {
				g := grad.At(oc, oy, ox)
				if g == 0 {
					continue
				}
				c.bias.Grad[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for kh := 0; kh < c.Kernel; kh++ {
						iy := oy*c.Stride + kh - c.Pad
						if iy < 0 || iy >= x.H {
							continue
						}
						for kw := 0; kw < c.Kernel; kw++ {
							ix := ox*c.Stride + kw - c.Pad
							if ix < 0 || ix >= x.W {
								continue
							}
							idx := c.wIdx(oc, ic, kh, kw)
							c.weight.Grad[idx] += g * x.At(ic, iy, ix)
							dx.Add(ic, iy, ix, g*c.weight.Data[idx])
						}
					}
				}
			}
		}
	}
	return dx
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
	mask []bool
}

// Forward implements Layer.
func (r *relu) Forward(x *Tensor) *Tensor {
	out := x.Clone()
	r.mask = make([]bool, len(x.Data))
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *relu) Backward(grad *Tensor) *Tensor {
	dx := grad.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
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
	input  *Tensor
	argmax []int // flat input index chosen per output element
}

// Forward implements Layer.
func (p *maxPool2) Forward(x *Tensor) *Tensor {
	oh, ow := x.H/2, x.W/2
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("cnn: input %dx%d too small to pool", x.H, x.W))
	}
	p.input = x
	out := NewTensor(x.C, oh, ow)
	p.argmax = make([]int, x.C*oh*ow)
	for c := 0; c < x.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						iy, ix := oy*2+dy, ox*2+dx
						v := x.At(c, iy, ix)
						if v > best {
							best = v
							bestIdx = (c*x.H+iy)*x.W + ix
						}
					}
				}
				out.Set(c, oy, ox, best)
				p.argmax[(c*oh+oy)*ow+ox] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *maxPool2) Backward(grad *Tensor) *Tensor {
	dx := NewTensor(p.input.C, p.input.H, p.input.W)
	for i, g := range grad.Data {
		dx.Data[p.argmax[i]] += g
	}
	return dx
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
	out := NewTensor(d.Out, 1, 1)
	for o := 0; o < d.Out; o++ {
		sum := d.bias.Data[o]
		row := d.weight.Data[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			sum += row[i] * v
		}
		out.Data[o] = sum
	}
	return out
}

// Backward implements Layer.
func (d *dense) Backward(grad *Tensor) *Tensor {
	dx := NewTensor(d.input.C, d.input.H, d.input.W)
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
	sumInput     *Tensor // x, for the skip connection
	preAct       *Tensor // x + g(x), for the outer ReLU mask
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
	b.sumInput = x
	g := b.conv2.Forward(b.relu1.Forward(b.conv1.Forward(x)))
	if !g.SameShape(x) {
		panic("cnn: residual branch changed shape")
	}
	sum := x.Clone()
	for i := range sum.Data {
		sum.Data[i] += g.Data[i]
	}
	b.preAct = sum
	out := sum.Clone()
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (b *residual) Backward(grad *Tensor) *Tensor {
	// Through the outer ReLU.
	dSum := grad.Clone()
	for i := range dSum.Data {
		if b.preAct.Data[i] <= 0 {
			dSum.Data[i] = 0
		}
	}
	// Branch gradient.
	dBranch := b.conv1.Backward(b.relu1.Backward(b.conv2.Backward(dSum)))
	// Skip connection adds the sum gradient directly.
	dx := dSum.Clone()
	for i := range dx.Data {
		dx.Data[i] += dBranch.Data[i]
	}
	return dx
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
