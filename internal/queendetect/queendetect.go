// Package queendetect assembles the end-to-end queen-detection service
// of Section V: synthesize (or accept) labeled hive audio, extract the
// paper's mel-spectrogram features, train the SVM and CNN classifiers,
// and measure the accuracy and edge inference energy of each — the
// pipeline behind Figure 5 and the per-cycle model costs of Tables I/II.
package queendetect

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/audio"
	"beesim/internal/dsp"
	"beesim/internal/ml"
	"beesim/internal/ml/cnn"
	"beesim/internal/ml/svm"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/units"
)

// Labels for the binary task.
const (
	LabelQueenless = 0
	LabelQueen     = 1
)

// NMels is the paper's mel band count.
const NMels = 128

// melFeatures computes the paper's front end for one clip: a mel
// spectrogram (FFT 2048, hop 512, 128 bands) normalized to [0,1]. The
// memoized plan holds the real-FFT tables, sparse mel filterbank and
// scratch arenas every extraction at this sample rate reuses.
func melFeatures(clip []float64, sampleRate int) (*dsp.Matrix, error) {
	plan, err := dsp.PlanFor(dsp.PaperSTFT(), NMels, sampleRate)
	if err != nil {
		return nil, fmt.Errorf("queendetect: features: %w", err)
	}
	mel, err := plan.MelSpectrogram(clip)
	if err != nil {
		return nil, fmt.Errorf("queendetect: features: %w", err)
	}
	mel.Normalize()
	return mel, nil
}

// VectorFeatures returns the SVM's input: the time-pooled mel vector
// ("vector features are passed as is for the training phase of the SVM").
func VectorFeatures(clip []float64, sampleRate int) ([]float64, error) {
	mel, err := melFeatures(clip, sampleRate)
	if err != nil {
		return nil, err
	}
	return mel.MeanPool(), nil
}

// ImageFeatures returns the CNN's input: the mel spectrogram resized to a
// square size x size image ("they are converted into images for the CNN
// model").
func ImageFeatures(clip []float64, sampleRate, size int) (*dsp.Matrix, error) {
	mel, err := melFeatures(clip, sampleRate)
	if err != nil {
		return nil, err
	}
	return mel.Resize(size, size)
}

// BuildVectorDataset converts a labeled corpus into the SVM dataset.
func BuildVectorDataset(corpus []audio.LabeledClip, sampleRate int) (*ml.Dataset, error) {
	if len(corpus) == 0 {
		return nil, errors.New("queendetect: empty corpus")
	}
	// Feature extraction is per-clip pure work, fanned across the
	// default worker pool and merged in corpus order.
	x, err := parallel.Map(0, len(corpus), func(i int) ([]float64, error) {
		return VectorFeatures(corpus[i].Samples, sampleRate)
	})
	if err != nil {
		return nil, err
	}
	y := make([]int, len(corpus))
	for i, clip := range corpus {
		y[i] = label(clip.QueenPresent)
	}
	return ml.NewDataset(x, y)
}

// BuildImageDataset converts a labeled corpus into CNN examples at the
// given input size, returning flattened rows (for shared metrics) too.
func BuildImageDataset(corpus []audio.LabeledClip, sampleRate, size int) ([]cnn.Example, *ml.Dataset, error) {
	if len(corpus) == 0 {
		return nil, nil, errors.New("queendetect: empty corpus")
	}
	// As in BuildVectorDataset, the per-clip front end fans out and the
	// results merge back in corpus order.
	imgs, err := parallel.Map(0, len(corpus), func(i int) (*dsp.Matrix, error) {
		return ImageFeatures(corpus[i].Samples, sampleRate, size)
	})
	if err != nil {
		return nil, nil, err
	}
	examples := make([]cnn.Example, len(corpus))
	x := make([][]float64, len(corpus))
	y := make([]int, len(corpus))
	for i, img := range imgs {
		examples[i] = cnn.Example{Image: cnn.ImageFromMatrix(img), Label: label(corpus[i].QueenPresent)}
		x[i] = img.Flatten()
		y[i] = examples[i].Label
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, nil, err
	}
	return examples, d, nil
}

func label(queenPresent bool) int {
	if queenPresent {
		return LabelQueen
	}
	return LabelQueenless
}

// SVMResult is a trained-and-evaluated SVM service.
type SVMResult struct {
	Model   *svm.Model
	Scaler  *ml.Scaler
	Metrics ml.BinaryMetrics
	// EdgeEnergy/EdgeDuration estimate one prediction on the Pi 3B+.
	EdgeEnergy   units.Joules
	EdgeDuration time.Duration
}

// TrainSVM trains and evaluates the classical model on a corpus split.
func TrainSVM(corpus []audio.LabeledClip, sampleRate int, seed uint64) (*SVMResult, error) {
	d, err := BuildVectorDataset(corpus, sampleRate)
	if err != nil {
		return nil, err
	}
	train, test, err := d.Split(0.75, seed)
	if err != nil {
		return nil, err
	}
	scaler := ml.FitScaler(train)
	cfg := svm.ScaleConfig()
	cfg.Seed = seed
	model, err := svm.Train(scaler.TransformAll(train), cfg)
	if err != nil {
		return nil, err
	}
	scaled := scaler.TransformAll(test)
	res := &SVMResult{
		Model:   model,
		Scaler:  scaler,
		Metrics: ml.EvaluateBinary(model, scaled),
	}
	res.EdgeEnergy, res.EdgeDuration = power.DefaultEdgeInference().Cost(model.FLOPs())
	return res, nil
}

// Predict classifies one clip with the trained SVM service.
func (r *SVMResult) Predict(clip []float64, sampleRate int) (bool, error) {
	v, err := VectorFeatures(clip, sampleRate)
	if err != nil {
		return false, err
	}
	return r.Model.Predict(r.Scaler.Transform(v)) == LabelQueen, nil
}

// CNNResult is a trained-and-evaluated CNN service at one input size.
// Predict runs the network through its layers' reused buffers, so a
// CNNResult is not safe for concurrent use.
type CNNResult struct {
	Network *cnn.Network
	Size    int
	Metrics ml.BinaryMetrics
	// FLOPs of one forward pass and the resulting edge cost.
	FLOPs        float64
	EdgeEnergy   units.Joules
	EdgeDuration time.Duration
}

// CNNOptions tune the deep model's training.
type CNNOptions struct {
	Size     int
	Train    cnn.TrainConfig
	Channels int
	Seed     uint64
}

// DefaultCNNOptions mirror the paper's schedule (4 epochs, LR 0.001) at
// the optimal 100x100 input.
func DefaultCNNOptions() CNNOptions {
	return CNNOptions{Size: 100, Train: cnn.PaperTrain(), Channels: 8, Seed: 1}
}

// TrainCNN trains and evaluates the deep model on a corpus split.
func TrainCNN(corpus []audio.LabeledClip, sampleRate int, opts CNNOptions) (*CNNResult, error) {
	_, flat, err := BuildImageDataset(corpus, sampleRate, opts.Size)
	if err != nil {
		return nil, err
	}
	net, err := cnn.New(cnn.Config{
		InputSize: opts.Size, Classes: 2, BaseChannels: opts.Channels, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	// Deterministic split of examples aligned with the flat dataset.
	trainFlat, testFlat, err := flat.Split(0.75, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Re-materialize example tensors for the training rows.
	trainExamples := make([]cnn.Example, trainFlat.Len())
	for i, row := range trainFlat.X {
		t := cnn.NewTensor(1, opts.Size, opts.Size)
		copy(t.Data, row)
		trainExamples[i] = cnn.Example{Image: t, Label: trainFlat.Y[i]}
	}
	if err := net.Train(trainExamples, opts.Train); err != nil {
		return nil, err
	}
	res := &CNNResult{
		Network: net,
		Size:    opts.Size,
		Metrics: ml.EvaluateBinary(net, testFlat),
		FLOPs:   net.FLOPs(),
	}
	res.EdgeEnergy, res.EdgeDuration = power.DefaultEdgeInference().Cost(res.FLOPs)
	return res, nil
}

// Predict classifies one clip with the trained CNN service.
func (r *CNNResult) Predict(clip []float64, sampleRate int) (bool, error) {
	img, err := ImageFeatures(clip, sampleRate, r.Size)
	if err != nil {
		return false, err
	}
	return r.Network.PredictImage(cnn.ImageFromMatrix(img)) == LabelQueen, nil
}
