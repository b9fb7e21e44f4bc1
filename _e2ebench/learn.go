package main

import (
	"fmt"
	"math"
	"time"

	"beesim/internal/audio"
	"beesim/internal/ml"
	"beesim/internal/ml/cnn"
	"beesim/internal/ml/svm"
	"beesim/internal/queendetect"
)

// learn synthesizes a labelled corpus from the op's seed and trains
// both of the paper's detectors on it: the SVM, and the CNN at a
// reduced set of Figure 5 input sizes. It is the ML half's batch path:
// audio synthesis, mel features over a whole corpus, SMO and conv
// backprop.
type learn struct {
	seed uint64
	out  learnOut
}

// The learn op's corpus and model shapes (README: "Inputs").
const (
	learnClips       = 40
	learnClipSeconds = 0.5
	learnChannels    = 4
	learnEpochs      = 4
	learnLR          = 0.01
	// svmAccuracyFloor is the held-out SVM accuracy every op must
	// reach; its 10-clip test split scores in steps of 0.1.
	svmAccuracyFloor = 0.7
)

// learnSizes are the reduced Figure 5 input sides; the second doubles
// the first so the FLOPs ratio tests the quadratic claim.
var learnSizes = []int{20, 40}

// learnOut holds what verify needs from the last op.
type learnOut struct {
	svmAccuracy    float64
	supportVectors int
	cnnFLOPs       []float64
	cnnAccuracy    []float64
}

func (w *learn) setup(e *env) error { w.seed = e.seed; return nil }
func (w *learn) round() int         { return 1 }
func (w *learn) finish() error      { return nil }

func learnCorpus(seed uint64) ([]audio.LabeledClip, error) {
	return audio.Corpus(audio.Config{SampleRate: audio.SampleRate, Seconds: learnClipSeconds, Seed: seed}, learnClips)
}

func cnnOptions(size int, seed uint64) queendetect.CNNOptions {
	opts := queendetect.DefaultCNNOptions()
	opts.Size = size
	opts.Channels = learnChannels
	opts.Seed = seed
	opts.Train.Epochs = learnEpochs
	opts.Train.LR = learnLR
	opts.Train.Seed = seed
	return opts
}

// op trains through queendetect's public entry points on the timed run;
// the traced run composes the same steps itself (learnTraced) so each
// layer gets its own span.
func (w *learn) op(i int, tr *tracer) error {
	seed := opSeed(w.seed, i)
	if tr != nil {
		out, err := learnTraced(seed, tr)
		w.out = out
		return err
	}
	corpus, err := learnCorpus(seed)
	if err != nil {
		return err
	}
	svmRes, err := queendetect.TrainSVM(corpus, audio.SampleRate, seed)
	if err != nil {
		return err
	}
	out := learnOut{svmAccuracy: svmRes.Metrics.Accuracy, supportVectors: svmRes.Model.NumSupportVectors()}
	for _, size := range learnSizes {
		res, err := queendetect.TrainCNN(corpus, audio.SampleRate, cnnOptions(size, seed))
		if err != nil {
			return err
		}
		out.cnnFLOPs = append(out.cnnFLOPs, res.FLOPs)
		out.cnnAccuracy = append(out.cnnAccuracy, res.Metrics.Accuracy)
	}
	w.out = out
	return nil
}

// learnTraced performs queendetect.TrainSVM and TrainCNN step by step
// from their public parts, one span per layer. The quick test checks
// that it reaches the same models as the entry points.
func learnTraced(seed uint64, tr *tracer) (learnOut, error) {
	var out learnOut
	var corpus []audio.LabeledClip
	err := tr.do("audio.corpus", func() (err error) {
		corpus, err = learnCorpus(seed)
		return err
	})
	if err != nil {
		return out, err
	}

	var vectors *ml.Dataset
	if err := tr.do("queendetect.features", func() (err error) {
		vectors, err = queendetect.BuildVectorDataset(corpus, audio.SampleRate)
		return err
	}); err != nil {
		return out, err
	}
	train, test, err := vectors.Split(0.75, seed)
	if err != nil {
		return out, err
	}
	scaler := ml.FitScaler(train)
	cfg := svm.ScaleConfig()
	cfg.Seed = seed
	var model *svm.Model
	if err := tr.do("svm.train", func() (err error) {
		model, err = svm.Train(scaler.TransformAll(train), cfg)
		return err
	}); err != nil {
		return out, err
	}
	scaledTest := scaler.TransformAll(test)
	_ = tr.do("ml.eval", func() error {
		out.svmAccuracy = ml.EvaluateBinary(model, scaledTest).Accuracy
		return nil
	})
	out.supportVectors = model.NumSupportVectors()
	tr.count("svm.support_vectors", float64(out.supportVectors))

	for _, size := range learnSizes {
		opts := cnnOptions(size, seed)
		var flat *ml.Dataset
		if err := tr.do("queendetect.features", func() (err error) {
			_, flat, err = queendetect.BuildImageDataset(corpus, audio.SampleRate, size)
			return err
		}); err != nil {
			return out, err
		}
		net, err := cnn.New(cnn.Config{InputSize: size, Classes: 2, BaseChannels: opts.Channels, Seed: opts.Seed})
		if err != nil {
			return out, err
		}
		trainFlat, testFlat, err := flat.Split(0.75, opts.Seed)
		if err != nil {
			return out, err
		}
		examples := make([]cnn.Example, trainFlat.Len())
		for k, row := range trainFlat.X {
			t := cnn.NewTensor(1, size, size)
			copy(t.Data, row)
			examples[k] = cnn.Example{Image: t, Label: trainFlat.Y[k]}
		}
		if err := tr.do("cnn.train", func() error { return net.Train(examples, opts.Train) }); err != nil {
			return out, err
		}
		_ = tr.do("ml.eval", func() error {
			out.cnnAccuracy = append(out.cnnAccuracy, ml.EvaluateBinary(net, testFlat).Accuracy)
			return nil
		})
		out.cnnFLOPs = append(out.cnnFLOPs, net.FLOPs())
		tr.count("cnn.mflops", net.FLOPs()/1e6)
	}
	return out, nil
}

func (w *learn) verify(i int) error {
	o := w.out
	if o.svmAccuracy < svmAccuracyFloor {
		return fmt.Errorf("learn op %d: SVM held-out accuracy %.3f below floor %.2f", i, o.svmAccuracy, svmAccuracyFloor)
	}
	if o.supportVectors <= 0 {
		return fmt.Errorf("learn op %d: SVM has no support vectors", i)
	}
	// Figure 5: forward FLOPs grow with the square of the input side.
	for k := 1; k < len(learnSizes); k++ {
		side := float64(learnSizes[k]) / float64(learnSizes[k-1])
		ratio := o.cnnFLOPs[k] / o.cnnFLOPs[k-1]
		if math.Abs(ratio/(side*side)-1) > 0.05 {
			return fmt.Errorf("learn op %d: CNN FLOPs ratio %.4f for side ratio %.2f, want %.2f (quadratic)", i, ratio, side, side*side)
		}
	}
	return nil
}

func (w *learn) layers() []layer {
	return []layer{
		{metric: "audio.corpus_ms", unit: "ms", span: "audio.corpus", scale: time.Millisecond},
		{metric: "queendetect.features_ms", unit: "ms", span: "queendetect.features", scale: time.Millisecond},
		{metric: "svm.train_ms", unit: "ms", span: "svm.train", scale: time.Millisecond},
		{metric: "svm.support_vectors", unit: "count", count: "svm.support_vectors"},
		{metric: "cnn.train_ms", unit: "ms", span: "cnn.train", scale: time.Millisecond},
		{metric: "cnn.mflops", unit: "count", count: "cnn.mflops"},
		{metric: "ml.eval_ms", unit: "ms", span: "ml.eval", scale: time.Millisecond},
	}
}
