package dsp

import "sync"

// This file holds the package's one memo: a Plan per front-end shape,
// so repeated queendetect calls with the paper's fixed front end (FFT
// 2048, hop 512, 128 mels at 22 050 Hz) stop rebuilding its tables on
// every clip. Plans are built once, immutable, and shared read-only
// across goroutines; sync.Map gives the lock-free read path the
// parallel spectrogram workers hit.

var planCache sync.Map // planKey -> *Plan

// planKey identifies one memoized Plan shape.
type planKey struct {
	fftSize, hop, nMels, sampleRate int
}

// ResetCaches drops the plan memo. Benchmarks use it to measure the
// cold path; production code never needs it.
func ResetCaches() {
	planCache = sync.Map{}
}

// PlanFor returns the shared memoized Plan for a shape, building it on
// first use. nMels == 0 gives a power-spectrogram-only plan (sampleRate
// is then ignored); nMels > 0 adds the mel filterbank and requires a
// positive sample rate. The same instance is returned to every caller;
// Plans are immutable and concurrency-safe, so the whole process
// amortizes one precomputation per shape.
func PlanFor(cfg STFTConfig, nMels, sampleRate int) (*Plan, error) {
	key := planKey{fftSize: cfg.FFTSize, hop: cfg.Hop, nMels: nMels, sampleRate: sampleRate}
	if v, ok := planCache.Load(key); ok {
		return v.(*Plan), nil
	}
	p, err := newPlan(cfg, nMels, sampleRate)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(key, p)
	return v.(*Plan), nil
}
