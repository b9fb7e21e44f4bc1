// Package beesim is an energy-aware precision-beekeeping simulation and
// service-orchestration library, reproducing Hadjur, Lefèvre & Ammar,
// "Services Orchestration at the Edge and in the Cloud on Energy-Aware
// Precision Beekeeping Systems" (PAISE/IPDPS-W 2023).
//
// The library answers the paper's question — should a smart beehive's
// AI services run on the hive's Raspberry Pi or on a cloud server? — for
// fleets of any size, with calibrated energy models for every component:
//
//   - Device energy models calibrated from the paper's measurements
//     (routines, sleep states, cloud idle/receive/execute bursts).
//   - A full queen-detection service: synthetic hive audio, the paper's
//     mel-spectrogram front end, from-scratch SVM and CNN classifiers.
//   - A deployed-hive simulator (solar, battery, weather, colony) that
//     regenerates the paper's week-long traces.
//   - The client/server/allocator scale model with the paper's three
//     loss models, placement recommendations and crossover analysis.
//
// The subpackages under internal/ implement the pieces; this package
// re-exports the stable API surface. Each figure and table of the paper
// is regenerated by `beesim reproduce <ID>` from the artifact list in
// internal/experiments (and benchmarked in bench_test.go); see DESIGN.md
// and EXPERIMENTS.md.
package beesim

import (
	"time"

	"beesim/internal/audio"
	"beesim/internal/core"
	"beesim/internal/deployment"
	"beesim/internal/power"
	"beesim/internal/queendetect"
	"beesim/internal/routine"
	"beesim/internal/units"
)

// Physical quantities.
type (
	// Joules is an amount of energy.
	Joules = units.Joules
	// Watts is an instantaneous power.
	Watts = units.Watts
)

// Classifier and placement choices of Section V.
type (
	// Model selects the queen-detection classifier (SVM or CNN).
	Model = routine.Model
	// Placement selects where the service runs.
	Placement = routine.Placement
)

// Re-exported enum values.
const (
	SVM       = routine.SVM
	CNN       = routine.CNN
	EdgeOnly  = routine.EdgeOnly
	EdgeCloud = routine.EdgeCloud
)

// Orchestration model types (Section VI).
type (
	// Service is a per-cycle service cost profile in both placements.
	Service = core.Service
	// ServerSpec describes a cloud server for the allocator.
	ServerSpec = core.ServerSpec
	// Losses configures the paper's three loss models.
	Losses = core.Losses
	// CycleCost is one simulated fleet cycle's energy outcome.
	CycleCost = core.CycleCost
	// Allocation maps a client fleet onto servers and time slots.
	Allocation = core.Allocation
	// Recommendation is a placement decision with its margins.
	Recommendation = core.Recommendation
	// FillPolicy selects the allocator's slot-filling strategy.
	FillPolicy = core.FillPolicy
)

// Re-exported allocator policies.
const (
	FillSequential = core.FillSequential
	FillBalanced   = core.FillBalanced
)

// DefaultPeriod is the paper's 5-minute wake-up cycle.
const DefaultPeriod = 5 * time.Minute

// NewService derives the queen-detection service profile for a
// classifier from the calibrated device models (Tables I and II).
func NewService(model Model, period time.Duration) (Service, error) {
	return core.NewService(model, period)
}

// DefaultServer returns the paper's cloud server (44.6 W idle) with the
// given per-slot client capacity.
func DefaultServer(maxParallel int) ServerSpec { return core.DefaultServer(maxParallel) }

// PaperLosses returns the Section VI-C loss configuration with the
// selected models (A: slot saturation, B: transfer penalty, C: client
// loss) enabled, under Figure 8's semantics.
func PaperLosses(a, b, c bool) Losses { return core.PaperLosses(a, b, c) }

// Recommend compares the edge and edge+cloud scenarios for a fleet and
// returns the more energy-efficient placement.
func Recommend(clients int, server ServerSpec, svc Service, l Losses) (Recommendation, error) {
	return core.Recommend(clients, server, svc, l)
}

// Allocate places a fleet onto servers and time slots using the given
// filling policy.
func Allocate(clients int, server ServerSpec, svc Service, l Losses, policy FillPolicy) (Allocation, error) {
	return core.Allocate(clients, server, svc, l, policy)
}

// AveragePower returns the edge device's long-run mean power at a
// wake-up period — the curve of Figure 3 (1.19 W at 5 minutes, falling
// toward the 0.62 W sleep power).
func AveragePower(period time.Duration) Watts {
	return power.DefaultPi3B().AveragePower(period)
}

// Deployment simulation (Figure 2).
type (
	// TraceConfig shapes a deployed-hive simulation run.
	TraceConfig = deployment.Config
	// Trace is the simulation output: the series Figure 2 plots.
	Trace = deployment.Trace
)

// DefaultTraceConfig reproduces the paper's Figure 2 setting: a week in
// Cachan at a 10-minute wake-up period with night brownouts.
func DefaultTraceConfig() TraceConfig { return deployment.DefaultConfig() }

// RunTrace executes the deployed-hive simulation.
func RunTrace(cfg TraceConfig) (*Trace, error) { return deployment.Run(cfg) }

// Queen detection service (Section V, Figure 5).
type (
	// LabeledClip is one labeled audio sample.
	LabeledClip = audio.LabeledClip
	// AudioConfig shapes the hive-sound synthesizer.
	AudioConfig = audio.Config
	// SVMDetector is a trained classical queen detector.
	SVMDetector = queendetect.SVMResult
	// CNNDetector is a trained deep queen detector. It is not safe for
	// concurrent use: Predict reuses the network's layer buffers.
	CNNDetector = queendetect.CNNResult
	// CNNOptions tune the deep detector's training.
	CNNOptions = queendetect.CNNOptions
)

// AudioSampleRate is the paper's recording rate (22 050 Hz).
const AudioSampleRate = audio.SampleRate

// DefaultAudioConfig matches the paper's recording setup (10 s clips at
// 22 050 Hz).
func DefaultAudioConfig() AudioConfig { return audio.DefaultConfig() }

// SynthesizeCorpus generates a balanced labeled corpus of hive sound
// (half queen-present, half queenless).
func SynthesizeCorpus(cfg AudioConfig, n int) ([]LabeledClip, error) {
	return audio.Corpus(cfg, n)
}

// TrainSVMDetector trains and evaluates the classical queen detector.
func TrainSVMDetector(corpus []LabeledClip, sampleRate int, seed uint64) (*SVMDetector, error) {
	return queendetect.TrainSVM(corpus, sampleRate, seed)
}

// DefaultCNNOptions mirror the paper's schedule (4 epochs, LR 0.001) at
// the optimal 100x100 input.
func DefaultCNNOptions() CNNOptions { return queendetect.DefaultCNNOptions() }

// TrainCNNDetector trains and evaluates the deep queen detector.
func TrainCNNDetector(corpus []LabeledClip, sampleRate int, opts CNNOptions) (*CNNDetector, error) {
	return queendetect.TrainCNN(corpus, sampleRate, opts)
}
