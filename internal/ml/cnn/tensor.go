// Package cnn implements the paper's deep queen-detection model: a small
// convolutional network (with a residual block in the spirit of the
// paper's ResNet18) trained by stochastic gradient descent, built from
// scratch on dense float64 tensors.
//
// The network takes the N x N mel-spectrogram images of Section V and
// predicts queen presence. Its FLOPs method feeds the edge inference
// energy model that regenerates Figure 5: for a fixed conv stack, FLOPs
// grow linearly with pixel count, so inference energy is quadratic in the
// image side length — exactly the paper's observation.
package cnn

import "fmt"

// Tensor is a dense rank-3 array in channel-major (C, H, W) layout.
type Tensor struct {
	C, H, W int
	Data    []float64
}

// NewTensor allocates a zeroed C x H x W tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("cnn: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// reuse returns t when it already has shape c x h x w, and a new zeroed
// tensor of that shape otherwise. Layers keep their outputs and input
// gradients this way, so a training run allocates them once per shape.
func reuse(t *Tensor, c, h, w int) *Tensor {
	if t != nil && t.C == c && t.H == h && t.W == w {
		return t
	}
	return NewTensor(c, h, w)
}

// SameShape reports whether two tensors have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.C == o.C && t.H == o.H && t.W == o.W
}

// Param is a learnable parameter array with its gradient accumulator and
// SGD momentum buffer.
type Param struct {
	Data     []float64
	Grad     []float64
	velocity []float64
}

func newParam(n int) *Param {
	return &Param{Data: make([]float64, n), Grad: make([]float64, n), velocity: make([]float64, n)}
}

// step applies one SGD-with-momentum update and clears the gradient.
func (p *Param) step(lr, momentum float64) {
	for i := range p.Data {
		p.velocity[i] = momentum*p.velocity[i] - lr*p.Grad[i]
		p.Data[i] += p.velocity[i]
		p.Grad[i] = 0
	}
}

// Layer is one differentiable stage of the network.
type Layer interface {
	// Forward consumes the input and returns the output, caching
	// whatever the backward pass needs. The output belongs to the layer
	// and is overwritten by its next Forward.
	Forward(x *Tensor) *Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients along the way. The result belongs
	// to the layer and is overwritten by its next Backward.
	Backward(grad *Tensor) *Tensor
	// Params returns the learnable parameters (nil for stateless layers).
	Params() []*Param
	// FLOPs returns the multiply-accumulate cost of one forward pass for
	// the given input shape, and the output shape.
	FLOPs(c, h, w int) (flops float64, oc, oh, ow int)
}
