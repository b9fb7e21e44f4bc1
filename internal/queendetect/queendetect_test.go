package queendetect

import (
	"testing"

	"beesim/internal/audio"
	"beesim/internal/hive"
)

// testCorpus builds a small corpus of short clips so the full pipeline
// stays fast under `go test`.
func testCorpus(t *testing.T, n int) []audio.LabeledClip {
	t.Helper()
	cfg := audio.Config{SampleRate: audio.SampleRate, Seconds: 1, Seed: 5}
	corpus, err := audio.Corpus(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestFeaturesShape(t *testing.T) {
	corpus := testCorpus(t, 2)
	mel, err := melFeatures(corpus[0].Samples, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if mel.Rows != 128 {
		t.Fatalf("mel rows = %d, want 128 (paper)", mel.Rows)
	}
	lo, hi := mel.MinMax()
	if lo < 0 || hi > 1 {
		t.Fatalf("normalized mel range = [%v,%v]", lo, hi)
	}
}

func TestVectorFeaturesLength(t *testing.T) {
	corpus := testCorpus(t, 2)
	v, err := VectorFeatures(corpus[0].Samples, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 128 {
		t.Fatalf("vector features = %d dims, want 128", len(v))
	}
}

func TestImageFeaturesSizes(t *testing.T) {
	corpus := testCorpus(t, 2)
	for _, size := range []int{20, 60, 100} {
		img, err := ImageFeatures(corpus[0].Samples, audio.SampleRate, size)
		if err != nil {
			t.Fatal(err)
		}
		if img.Rows != size || img.Cols != size {
			t.Fatalf("image = %dx%d, want %dx%d", img.Rows, img.Cols, size, size)
		}
	}
}

func TestBuildDatasets(t *testing.T) {
	corpus := testCorpus(t, 8)
	d, err := BuildVectorDataset(corpus, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 8 || d.Dim() != 128 || d.Classes() != 2 {
		t.Fatalf("vector dataset %d x %d, %d classes", d.Len(), d.Dim(), d.Classes())
	}
	examples, flat, err := BuildImageDataset(corpus, audio.SampleRate, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) != 8 || flat.Dim() != 24*24 {
		t.Fatalf("image dataset %d examples, dim %d", len(examples), flat.Dim())
	}
	if _, err := BuildVectorDataset(nil, audio.SampleRate); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, _, err := BuildImageDataset(nil, audio.SampleRate, 24); err == nil {
		t.Error("empty corpus accepted (image)")
	}
}

func TestSVMEndToEnd(t *testing.T) {
	corpus := testCorpus(t, 60)
	res, err := TrainSVM(corpus, audio.SampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.9 {
		t.Fatalf("SVM accuracy = %v, want >= 0.9 on synthetic corpus", res.Metrics.Accuracy)
	}
	if res.EdgeEnergy <= 0 || res.EdgeDuration <= 0 {
		t.Fatal("SVM edge cost not estimated")
	}

	// Fresh clips classify correctly most of the time.
	synth, err := audio.NewSynth(audio.Config{SampleRate: audio.SampleRate, Seconds: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	const n = 10
	for i := 0; i < n; i++ {
		queen, err := res.Predict(synth.Clip(hive.QueenPresent, 0.7), audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if queen {
			correct++
		}
		queen, err = res.Predict(synth.Clip(hive.QueenLost, 0.7), audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if !queen {
			correct++
		}
	}
	if correct < 16 {
		t.Fatalf("fresh-clip accuracy = %d/20", correct)
	}
}

func TestCNNEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	corpus := testCorpus(t, 60)
	opts := DefaultCNNOptions()
	opts.Size = 24 // small input keeps the test quick
	opts.Channels = 4
	opts.Train.Epochs = 8
	opts.Train.LR = 0.01
	res, err := TrainCNN(corpus, audio.SampleRate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.85 {
		t.Fatalf("CNN accuracy = %v, want >= 0.85", res.Metrics.Accuracy)
	}
	if res.FLOPs <= 0 || res.EdgeEnergy <= 0 {
		t.Fatal("CNN cost not estimated")
	}
	queen, err := res.Predict(corpus[0].Samples, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if queen != corpus[0].QueenPresent {
		t.Log("single fresh prediction missed (acceptable; accuracy checked above)")
	}
}

func TestCNNEnergyGrowsWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	corpus := testCorpus(t, 20)
	var prev float64
	for _, size := range []int{16, 32, 64} {
		opts := DefaultCNNOptions()
		opts.Size = size
		opts.Channels = 2
		opts.Train.Epochs = 1
		res, err := TrainCNN(corpus, audio.SampleRate, opts)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.EdgeEnergy) <= prev {
			t.Fatalf("edge energy not increasing at size %d", size)
		}
		prev = float64(res.EdgeEnergy)
	}
}

func TestFeatureErrorPaths(t *testing.T) {
	// Clips shorter than one STFT window are rejected end to end.
	short := make([]float64, 100)
	if _, err := melFeatures(short, audio.SampleRate); err == nil {
		t.Error("short clip accepted by melFeatures")
	}
	if _, err := VectorFeatures(short, audio.SampleRate); err == nil {
		t.Error("short clip accepted by VectorFeatures")
	}
	if _, err := ImageFeatures(short, audio.SampleRate, 32); err == nil {
		t.Error("short clip accepted by ImageFeatures")
	}
	// Invalid resize target.
	ok := make([]float64, 4096)
	if _, err := ImageFeatures(ok, audio.SampleRate, 0); err == nil {
		t.Error("zero image size accepted")
	}
}

func TestTrainSVMErrorPaths(t *testing.T) {
	if _, err := TrainSVM(nil, audio.SampleRate, 1); err == nil {
		t.Error("empty corpus accepted")
	}
	// A corpus too small to split 75/25 both ways non-empty.
	tiny := testCorpus(t, 1)
	if _, err := TrainSVM(tiny, audio.SampleRate, 1); err == nil {
		t.Error("single-clip corpus accepted")
	}
}

func TestTrainCNNErrorPaths(t *testing.T) {
	corpus := testCorpus(t, 8)
	opts := DefaultCNNOptions()
	opts.Size = 4 // below the CNN's minimum input
	if _, err := TrainCNN(corpus, audio.SampleRate, opts); err == nil {
		t.Error("tiny CNN input accepted")
	}
}

func TestPredictErrorPaths(t *testing.T) {
	corpus := testCorpus(t, 40)
	res, err := TrainSVM(corpus, audio.SampleRate, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Predict(make([]float64, 10), audio.SampleRate); err == nil {
		t.Error("short clip accepted by SVM Predict")
	}
}
