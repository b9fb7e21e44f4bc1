package beesim

// Benchmarks for the deterministic parallel execution layer
// (internal/parallel). The pairs below measure the two levers the
// layer pulls: fan-out across cores (Serial vs Parallel) and memoized
// DSP precomputation (Cold vs Cached). `make bench-baseline` snapshots
// them into BENCH_parallel.json; docs/PERFORMANCE.md explains how to
// read the numbers.

import (
	"testing"
	"time"

	"beesim/internal/dsp"
	"beesim/internal/experiments"
	"beesim/internal/optimizer"
	"beesim/internal/parallel"
	"beesim/internal/rng"
	"beesim/internal/services"
)

// benchSweepConfig is the Figure 9 sweep (1901 points, per-point loss
// sampling) — the heaviest figure and the tentpole fan-out workload.
func benchSweepConfig(b *testing.B) experiments.SweepConfig {
	b.Helper()
	cfg, err := experiments.Figure9Config()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func benchSweep(b *testing.B, workers int) {
	cfg := benchSweepConfig(b)
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial pins the legacy single-goroutine path
// (workers=1); BenchmarkSweepParallel uses every core. The ratio is
// the layer's headline speedup — byte-identical output is pinned
// separately by TestSweepDeterministicAcrossWorkers.
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkOptimizeParallel drives the full optimizer grid search with
// all cores; compare against BenchmarkFigure11Optimize (workers
// unset → also parallel now) or rerun with Workers=1 to see the
// serial cost.
func BenchmarkOptimizeParallel(b *testing.B) {
	req := optimizer.Requirements{
		Hives:        500,
		Services:     services.AllKinds(),
		MaxStaleness: 4 * time.Hour,
		Losses:       PaperLosses(true, true, true),
	}
	opts := optimizer.DefaultOptions()
	opts.Workers = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(req, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClip synthesizes one labeled clip for the DSP benchmarks.
func benchClip(b *testing.B) []float64 {
	b.Helper()
	corpus, err := SynthesizeCorpus(DefaultAudioConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return corpus[0].Samples
}

// serialFrames pins the worker pool's process default, which dsp's
// frame fan-out and every workers=0 caller otherwise size by the
// machine's CPU count, to one worker for the rest of the benchmark, so
// allocs/op match the baselines on any machine.
func serialFrames(b *testing.B) {
	parallel.SetDefault(1)
	b.Cleanup(func() { parallel.SetDefault(0) })
}

func benchMel(b *testing.B, cold bool) {
	serialFrames(b)
	clip := benchClip(b)
	cfg := dsp.PaperSTFT()
	if _, err := dsp.MelSpectrogram(clip, cfg, 128, 22050); err != nil { // warm once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			dsp.ResetCaches()
		}
		if _, err := dsp.MelSpectrogram(clip, cfg, 128, 22050); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMelSpectrogramCold rebuilds the Hann window, FFT twiddle
// tables and mel filterbank every iteration; Cached reuses the
// memoized tables. The delta is what the (fftSize, nMels, sampleRate)
// keyed caches save per clip.
func BenchmarkMelSpectrogramCold(b *testing.B)   { benchMel(b, true) }
func BenchmarkMelSpectrogramCached(b *testing.B) { benchMel(b, false) }

// BenchmarkMelSpectrogramPlan is the fully-amortized front end: a
// prebuilt Plan and a reused destination matrix, the steady-state
// configuration of a per-clip feature loop. The gap to Cached is the
// remaining per-call cost of the memo lookups and output allocation.
func BenchmarkMelSpectrogramPlan(b *testing.B) {
	serialFrames(b)
	clip := benchClip(b)
	plan, err := dsp.PlanFor(dsp.PaperSTFT(), 128, 22050)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := plan.MelSpectrogram(clip) // warm plan scratch + shape dst
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = plan.MelSpectrogramInto(dst, clip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRFFT measures one packed real transform at the paper's
// frame size (2048 samples -> 1025 bins) through the no-alloc entry
// point — the innermost kernel of every spectrogram.
func BenchmarkRFFT(b *testing.B) {
	r := rng.New(7)
	x := make([]float64, 2048)
	for i := range x {
		x[i] = r.Norm()
	}
	dst := make([]complex128, len(x)/2+1)
	if _, err := dsp.RFFTInto(dst, x); err != nil { // warm twiddles
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.RFFTInto(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel runs the Section-IV daily-routine Monte
// Carlo campaign (319 replicas, batched 64 per rng stream) through the
// worker pool at its process default, pinned to one worker so allocs/op
// match the one-vCPU baseline on any machine.
func BenchmarkCampaignParallel(b *testing.B) {
	serialFrames(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RoutineStatsWorkers(319, 0); err != nil {
			b.Fatal(err)
		}
	}
}
