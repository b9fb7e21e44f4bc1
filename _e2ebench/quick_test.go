package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"beesim/internal/audio"
	"beesim/internal/loadgen"
	"beesim/internal/parallel"
	"beesim/internal/queendetect"
	"beesim/internal/slo"
)

// TestQuick runs one round of every workload, timed and traced, with
// all their output checks, and requires every metric BENCHMARK.json
// declares to come out finite.
func TestQuick(t *testing.T) {
	parallel.SetDefault(1)
	var log bytes.Buffer
	seen, err := quick(options{seed: 1, root: ".."}, &log)
	t.Log("\n" + log.String())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(man.EndToEnd, man.PerLayer...) {
		got, ok := seen[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is never reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s reported in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0:
			t.Errorf("metric %s = %v, want a positive finite value", m.Name, got.Value)
		}
	}
}

// TestLearnTracedMatchesEntryPoints pins the traced learn op to
// queendetect.TrainSVM and TrainCNN: composing their public parts must
// reach the same models.
func TestLearnTracedMatchesEntryPoints(t *testing.T) {
	parallel.SetDefault(1)
	const seed = 5
	got, err := learnTraced(seed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := learnCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	svmRes, err := queendetect.TrainSVM(corpus, audio.SampleRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := learnOut{svmAccuracy: svmRes.Metrics.Accuracy, supportVectors: svmRes.Model.NumSupportVectors()}
	for _, size := range learnSizes {
		res, err := queendetect.TrainCNN(corpus, audio.SampleRate, cnnOptions(size, seed))
		if err != nil {
			t.Fatal(err)
		}
		want.cnnFLOPs = append(want.cnnFLOPs, res.FLOPs)
		want.cnnAccuracy = append(want.cnnAccuracy, res.Metrics.Accuracy)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced learn op reached %+v, entry points %+v", got, want)
	}
}

// TestPlanTracedMatchesPlan pins the traced plan op to loadgen.Plan:
// the report must be byte-identical.
func TestPlanTracedMatchesPlan(t *testing.T) {
	parallel.SetDefault(1)
	data, err := os.ReadFile(filepath.Join("..", "examples", "slo_upload.json"))
	if err != nil {
		t.Fatal(err)
	}
	sloSpec, err := slo.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := planSpec(9)
	if err != nil {
		t.Fatal(err)
	}
	evs := loadgen.Schedule(spec)
	want, err := loadgen.Plan(spec, evs, sloSpec, loadgen.PlanOptions{MaxServers: planMaxServer, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := planTraced(spec, evs, sloSpec, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("traced plan report differs from loadgen.Plan:\n%s\nvs\n%s", b.String(), a.String())
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 4, 1, 5, 9, 2.5, 6, 5, 3}, [3]float64{2.1875, 3.75, 5.25}},
		{[]float64{2, 7, 3}, [3]float64{2, 3, 7}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}
