package cnn

import (
	"errors"
	"fmt"
	"math"

	"beesim/internal/dsp"
	"beesim/internal/rng"
)

// Network is a sequential stack of layers ending in class logits.
type Network struct {
	layers  []Layer
	classes int
	inC     int
	inSize  int
}

// Config shapes the queen-detection network.
type Config struct {
	// InputSize is the side length N of the square N x N input image —
	// the independent variable of Figure 5's sweep.
	InputSize int
	// Classes is the number of output classes (2 for queen detection).
	Classes int
	// BaseChannels sets the width of the first conv (doubled after the
	// first pooling stage).
	BaseChannels int
	// Seed fixes weight initialization.
	Seed uint64
}

// New builds the reference architecture: conv-ReLU-pool, conv-ReLU-pool,
// residual block, pool, dense. Inputs smaller than 16 x 16 cannot survive
// the three pooling stages.
func New(cfg Config) (*Network, error) {
	if cfg.InputSize < 16 {
		return nil, fmt.Errorf("cnn: input size %d below the minimum 16", cfg.InputSize)
	}
	if cfg.Classes < 2 {
		return nil, errors.New("cnn: need at least 2 classes")
	}
	if cfg.BaseChannels < 1 {
		return nil, errors.New("cnn: need at least 1 base channel")
	}
	r := rng.New(cfg.Seed)
	ch1 := cfg.BaseChannels
	ch2 := 2 * cfg.BaseChannels

	s := cfg.InputSize
	s1 := s / 2  // after pool 1
	s2 := s1 / 2 // after pool 2
	s3 := s2 / 2 // after pool 3
	n := &Network{classes: cfg.Classes, inC: 1, inSize: cfg.InputSize}
	n.layers = []Layer{
		newConv2D(1, ch1, 3, 1, 1, r),
		&relu{},
		&maxPool2{},
		newConv2D(ch1, ch2, 3, 1, 1, r),
		&relu{},
		&maxPool2{},
		newResidual(ch2, r),
		&maxPool2{},
		newDense(ch2*s3*s3, cfg.Classes, r),
	}
	return n, nil
}

// InputSize returns the expected square input side length.
func (n *Network) InputSize() int { return n.inSize }

// Forward runs the network and returns the class logits.
func (n *Network) Forward(x *Tensor) []float64 {
	if x.C != n.inC || x.H != n.inSize || x.W != n.inSize {
		panic(fmt.Sprintf("cnn: input %dx%dx%d, want %dx%dx%d",
			x.C, x.H, x.W, n.inC, n.inSize, n.inSize))
	}
	cur := x
	for _, l := range n.layers {
		cur = l.Forward(cur)
	}
	return append([]float64(nil), cur.Data...)
}

// softmax converts logits to probabilities (numerically stabilized).
func softmax(logits []float64) []float64 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// lossAndGrad returns the cross-entropy loss for one example and runs the
// full backward pass, accumulating parameter gradients.
func (n *Network) lossAndGrad(x *Tensor, label int) float64 {
	logits := n.Forward(x)
	probs := softmax(logits)
	loss := -math.Log(math.Max(probs[label], 1e-12))
	grad := NewTensor(n.classes, 1, 1)
	for i, p := range probs {
		grad.Data[i] = p
	}
	grad.Data[label] -= 1
	cur := grad
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
	return loss
}

// TrainConfig shapes an SGD run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      uint64
	// OnEpoch, when non-nil, observes (epoch, mean loss) after each epoch.
	OnEpoch func(epoch int, loss float64)
}

// PaperTrain mirrors Section V's schedule: 4 epochs at learning rate
// 0.001 (with a momentum term for stability at our batch size).
func PaperTrain() TrainConfig {
	return TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.001, Momentum: 0.9, Seed: 1}
}

// Example is one training image with its label.
type Example struct {
	Image *Tensor
	Label int
}

// Train runs mini-batch SGD over the examples.
func (n *Network) Train(examples []Example, cfg TrainConfig) error {
	if len(examples) == 0 {
		return errors.New("cnn: no training examples")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return errors.New("cnn: non-positive epochs or batch size")
	}
	if cfg.LR <= 0 {
		return errors.New("cnn: non-positive learning rate")
	}
	for _, ex := range examples {
		if ex.Label < 0 || ex.Label >= n.classes {
			return fmt.Errorf("cnn: label %d out of range", ex.Label)
		}
	}
	r := rng.New(cfg.Seed)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			var batchLoss float64
			for _, i := range idx[start:end] {
				batchLoss += n.lossAndGrad(examples[i].Image, examples[i].Label)
			}
			// Average gradients over the batch, then step.
			scale := 1 / float64(end-start)
			for _, l := range n.layers {
				for _, p := range l.Params() {
					for i := range p.Grad {
						p.Grad[i] *= scale
					}
					p.step(cfg.LR, cfg.Momentum)
				}
			}
			epochLoss += batchLoss
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, epochLoss/float64(len(idx)))
		}
	}
	return nil
}

// PredictImage returns the predicted class of one image tensor.
func (n *Network) PredictImage(x *Tensor) int {
	logits := n.Forward(x)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// Predict implements ml.Classifier over a flattened square image,
// allowing the shared metrics helpers to evaluate the CNN.
func (n *Network) Predict(x []float64) int {
	if len(x) != n.inSize*n.inSize {
		panic(fmt.Sprintf("cnn: flat input %d, want %d", len(x), n.inSize*n.inSize))
	}
	t := NewTensor(1, n.inSize, n.inSize)
	copy(t.Data, x)
	return n.PredictImage(t)
}

// FLOPs returns the arithmetic cost of one forward pass — the quantity
// the edge energy model converts into joules for Figure 5.
func (n *Network) FLOPs() float64 {
	var total float64
	c, h, w := n.inC, n.inSize, n.inSize
	for _, l := range n.layers {
		f, oc, oh, ow := l.FLOPs(c, h, w)
		total += f
		c, h, w = oc, oh, ow
	}
	return total
}

// NumParams returns the learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			total += len(p.Data)
		}
	}
	return total
}

// ImageFromMatrix converts a dsp.Matrix (e.g. a resized mel spectrogram)
// into a single-channel input tensor.
func ImageFromMatrix(m *dsp.Matrix) *Tensor {
	t := NewTensor(1, m.Rows, m.Cols)
	copy(t.Data, m.Data)
	return t
}
