package main

import (
	"flag"
	"fmt"
	"io"

	"beesim/internal/audio"
	"beesim/internal/hive"
	"beesim/internal/queendetect"
)

// train trains and evaluates the queen-detection service of Section V
// on a synthetic corpus.
func train(fs *flag.FlagSet, args []string, w io.Writer) error {
	n := fs.Int("corpus", 200, "corpus size (the paper uses 1647)")
	clip := fs.Float64("clip", 2, "clip length in seconds (paper: 10)")
	model := fs.String("model", "both", "svm, cnn or both")
	size := fs.Int("size", 100, "CNN input size (paper optimum: 100)")
	epochs := fs.Int("epochs", 6, "CNN training epochs (paper: 4)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	corpus, err := audio.Corpus(audio.Config{
		SampleRate: audio.SampleRate,
		Seconds:    *clip,
		Seed:       *seed,
	}, *n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "corpus: %d clips of %.0f s at %d Hz\n\n", *n, *clip, audio.SampleRate)

	if *model == "svm" || *model == "both" {
		res, err := queendetect.TrainSVM(corpus, audio.SampleRate, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "SVM (RBF, C=20):\n")
		fmt.Fprintf(w, "  accuracy %.1f%%  precision %.1f%%  recall %.1f%%  F1 %.1f%%\n",
			100*res.Metrics.Accuracy, 100*res.Metrics.Precision,
			100*res.Metrics.Recall, 100*res.Metrics.F1)
		fmt.Fprintf(w, "  support vectors: %d\n", res.Model.NumSupportVectors())
		fmt.Fprintf(w, "  edge inference: %v in %v\n\n", res.EdgeEnergy, res.EdgeDuration.Round(0))
	}
	if *model == "cnn" || *model == "both" {
		opts := queendetect.DefaultCNNOptions()
		opts.Size = *size
		opts.Seed = *seed
		opts.Train.Epochs = *epochs
		opts.Train.LR = 0.01
		res, err := queendetect.TrainCNN(corpus, audio.SampleRate, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "CNN (%dx%d input, %d epochs):\n", *size, *size, *epochs)
		fmt.Fprintf(w, "  accuracy %.1f%%  precision %.1f%%  recall %.1f%%  F1 %.1f%%\n",
			100*res.Metrics.Accuracy, 100*res.Metrics.Precision,
			100*res.Metrics.Recall, 100*res.Metrics.F1)
		fmt.Fprintf(w, "  forward pass: %.1f MFLOPs\n", res.FLOPs/1e6)
		fmt.Fprintf(w, "  edge inference: %v in %v\n", res.EdgeEnergy, res.EdgeDuration.Round(0))
	}
	return nil
}

// synth writes one synthetic hive-sound clip as a WAV file.
func synth(fs *flag.FlagSet, args []string, w io.Writer) error {
	out := fs.String("out", "", "output WAV path (required)")
	state := fs.String("state", "present", "queen state: present, lost or piping")
	seconds := fs.Float64("seconds", 10, "clip length")
	activity := fs.Float64("activity", 0.7, "colony activity in [0,1]")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	var q hive.QueenState
	switch *state {
	case "present":
		q = hive.QueenPresent
	case "lost":
		q = hive.QueenLost
	case "piping":
		q = hive.QueenPiping
	default:
		return fmt.Errorf("unknown state %q", *state)
	}
	s, err := audio.NewSynth(audio.Config{
		SampleRate: audio.SampleRate, Seconds: *seconds, Seed: *seed})
	if err != nil {
		return err
	}
	clip := s.Clip(q, *activity)
	err = writeFile(*out, func(f io.Writer) error {
		return audio.WriteWAV(f, clip, audio.SampleRate)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %.0f s of %s hive sound to %s\n", *seconds, q, *out)
	return nil
}
