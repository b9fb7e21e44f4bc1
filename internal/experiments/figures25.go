package experiments

import (
	"fmt"
	"time"

	"beesim/internal/audio"
	"beesim/internal/deployment"
	"beesim/internal/queendetect"
	"beesim/internal/report"
	"beesim/internal/units"
)

// ---------------------------------------------------------------------
// Figure 2: the deployed-hive trace
// ---------------------------------------------------------------------

// Figure2Custom runs the deployment trace with a custom day count and
// wake period (Figure 2a uses a week; shorter runs are handy for tests).
func Figure2Custom(days int, wakePeriod time.Duration) (*deployment.Trace, error) {
	cfg := deployment.DefaultConfig()
	cfg.Days = days
	cfg.WakePeriod = wakePeriod
	return deployment.Run(cfg)
}

// ---------------------------------------------------------------------
// Figure 5: CNN accuracy & edge energy vs input size
// ---------------------------------------------------------------------

// Figure5Point is one input-size sample of Figure 5.
type Figure5Point struct {
	Size        int
	Accuracy    float64
	EdgeEnergy  units.Joules
	EdgeSeconds float64
	FLOPs       float64
}

// Figure5Config tunes the sweep cost. The paper trains on 1647 clips of
// 10 s; the defaults here use a smaller synthetic corpus that reproduces
// the qualitative curve in minutes instead of hours.
type Figure5Config struct {
	Sizes        []int
	CorpusSize   int
	ClipSeconds  float64
	Epochs       int
	LearningRate float64
	Channels     int
	Seed         uint64
}

// DefaultFigure5 sweeps the paper's size range around the 100x100
// optimum.
func DefaultFigure5() Figure5Config {
	return Figure5Config{
		Sizes:        []int{20, 40, 60, 80, 100, 120, 140, 160},
		CorpusSize:   120,
		ClipSeconds:  2,
		Epochs:       6,
		LearningRate: 0.01,
		Channels:     4,
		Seed:         1,
	}
}

// Figure5 trains the CNN at each input size on one shared corpus and
// reports accuracy and edge inference cost per size.
func Figure5(cfg Figure5Config) ([]Figure5Point, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("experiments: figure 5 needs at least one size")
	}
	corpus, err := audio.Corpus(audio.Config{
		SampleRate: audio.SampleRate,
		Seconds:    cfg.ClipSeconds,
		Seed:       cfg.Seed,
	}, cfg.CorpusSize)
	if err != nil {
		return nil, err
	}
	out := make([]Figure5Point, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		opts := queendetect.DefaultCNNOptions()
		opts.Size = size
		opts.Channels = cfg.Channels
		opts.Seed = cfg.Seed
		opts.Train.Epochs = cfg.Epochs
		opts.Train.LR = cfg.LearningRate
		opts.Train.Seed = cfg.Seed
		res, err := queendetect.TrainCNN(corpus, audio.SampleRate, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 5 size %d: %w", size, err)
		}
		out = append(out, Figure5Point{
			Size:        size,
			Accuracy:    res.Metrics.Accuracy,
			EdgeEnergy:  res.EdgeEnergy,
			EdgeSeconds: res.EdgeDuration.Seconds(),
			FLOPs:       res.FLOPs,
		})
	}
	return out, nil
}

// figure5Series converts the sweep to accuracy and energy series.
func figure5Series(points []Figure5Point) (acc, energy report.Series, err error) {
	x := make([]float64, len(points))
	ya := make([]float64, len(points))
	ye := make([]float64, len(points))
	for i, p := range points {
		x[i] = float64(p.Size)
		ya[i] = p.Accuracy
		ye[i] = float64(p.EdgeEnergy)
	}
	if acc, err = report.NewSeries("accuracy", x, ya); err != nil {
		return
	}
	energy, err = report.NewSeries("edge energy (J)", x, ye)
	return
}
