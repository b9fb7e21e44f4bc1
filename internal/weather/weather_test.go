package weather

import (
	"math"
	"testing"
	"time"

	"beesim/internal/solar"
)

var start = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func trace(t *testing.T, cfg Config, days int, step time.Duration) []Sample {
	t.Helper()
	g := NewGenerator(cfg)
	var out []Sample
	for tt := start; tt.Before(start.Add(time.Duration(days) * 24 * time.Hour)); tt = tt.Add(step) {
		out = append(out, g.At(tt))
	}
	return out
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(solar.Cachan)
	a := trace(t, cfg, 2, time.Hour)
	b := trace(t, cfg, 2, time.Hour)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between equal-seed runs", i)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	cfg1 := DefaultConfig(solar.Cachan)
	cfg2 := cfg1
	cfg2.Seed = 99
	a := trace(t, cfg1, 1, time.Hour)
	b := trace(t, cfg2, 1, time.Hour)
	same := 0
	for i := range a {
		if a[i].Temperature == b[i].Temperature {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical temperature traces")
	}
}

func TestPlausibleSpringRange(t *testing.T) {
	for _, s := range trace(t, DefaultConfig(solar.Cachan), 7, 30*time.Minute) {
		if s.Temperature < -10 || s.Temperature > 35 {
			t.Fatalf("spring temperature %v out of plausible range at %v",
				s.Temperature, s.Time)
		}
		if s.Humidity < 0 || s.Humidity > 1 {
			t.Fatalf("humidity %v out of [0,1]", s.Humidity)
		}
		if s.CloudCover < 0 || s.CloudCover > 1 {
			t.Fatalf("cloud cover %v out of [0,1]", s.CloudCover)
		}
		if s.Irradiance < 0 {
			t.Fatalf("negative irradiance %v", s.Irradiance)
		}
	}
}

func TestDiurnalCycle(t *testing.T) {
	// Average 15:00 local temperature must exceed average 03:00 local.
	samples := trace(t, DefaultConfig(solar.Cachan), 10, time.Hour)
	var warm, cold []float64
	for _, s := range samples {
		localHour := (s.Time.UTC().Hour() + 2) % 24
		switch localHour {
		case 15:
			warm = append(warm, float64(s.Temperature))
		case 3:
			cold = append(cold, float64(s.Temperature))
		}
	}
	if len(warm) == 0 || len(cold) == 0 {
		t.Fatal("missing hourly samples")
	}
	if mean(warm) <= mean(cold) {
		t.Fatalf("afternoon mean %.2f not above night mean %.2f", mean(warm), mean(cold))
	}
}

func TestSeasonalCycle(t *testing.T) {
	cfg := DefaultConfig(solar.Cachan)
	g := NewGenerator(cfg)
	julyNoon := g.At(time.Date(2023, 7, 15, 13, 0, 0, 0, time.UTC))
	g2 := NewGenerator(cfg)
	janNoon := g2.At(time.Date(2023, 1, 15, 13, 0, 0, 0, time.UTC))
	if julyNoon.Temperature <= janNoon.Temperature {
		t.Fatalf("July noon %v not warmer than January noon %v",
			julyNoon.Temperature, janNoon.Temperature)
	}
}

func TestNightIrradianceZero(t *testing.T) {
	g := NewGenerator(DefaultConfig(solar.Cachan))
	s := g.At(time.Date(2023, 4, 10, 23, 30, 0, 0, time.UTC))
	if s.Irradiance != 0 {
		t.Fatalf("night irradiance = %v, want 0", s.Irradiance)
	}
}

func TestHumidityAntiCorrelatesWithTemperature(t *testing.T) {
	samples := trace(t, DefaultConfig(solar.Cachan), 7, time.Hour)
	var sumT, sumH float64
	for _, s := range samples {
		sumT += float64(s.Temperature)
		sumH += float64(s.Humidity)
	}
	mT, mH := sumT/float64(len(samples)), sumH/float64(len(samples))
	var cov float64
	for _, s := range samples {
		cov += (float64(s.Temperature) - mT) * (float64(s.Humidity) - mH)
	}
	if cov >= 0 {
		t.Fatalf("temperature-humidity covariance = %v, want negative", cov)
	}
}

func TestCloudCoverPersists(t *testing.T) {
	// OU clouds must have positive lag-1 autocorrelation at 30 min.
	samples := trace(t, DefaultConfig(solar.Cachan), 7, 30*time.Minute)
	var xs []float64
	for _, s := range samples {
		xs = append(xs, s.CloudCover)
	}
	m := mean(xs)
	var num, den float64
	for i := 1; i < len(xs); i++ {
		num += (xs[i] - m) * (xs[i-1] - m)
	}
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	if den == 0 {
		t.Fatal("cloud cover is constant")
	}
	if ac := num / den; ac < 0.5 {
		t.Fatalf("cloud lag-1 autocorrelation = %v, want >= 0.5", ac)
	}
}

func TestBackwardTimeDoesNotAdvanceState(t *testing.T) {
	g := NewGenerator(DefaultConfig(solar.Cachan))
	s1 := g.At(start.Add(6 * time.Hour))
	s2 := g.At(start) // earlier: state must not advance
	if math.Abs(float64(s1.Temperature-s2.Temperature)) > 20 {
		t.Fatal("implausible jump on backward query")
	}
	s3 := g.At(start.Add(6 * time.Hour))
	if s3.Temperature != s1.Temperature {
		t.Fatalf("re-query at same time changed: %v vs %v", s3.Temperature, s1.Temperature)
	}
}

// TestRepeatedInstantIsMemoized calls At twice at each instant, as a
// deployment does when a wake-up and an environment tick share one:
// the second call returns the first call's sample and leaves the
// stream exactly where a single call would.
func TestRepeatedInstantIsMemoized(t *testing.T) {
	once := NewGenerator(DefaultConfig(solar.Cachan))
	twice := NewGenerator(DefaultConfig(solar.Cachan))
	for tt := start; tt.Before(start.Add(48 * time.Hour)); tt = tt.Add(10 * time.Minute) {
		want := once.At(tt)
		if got := twice.At(tt); got != want {
			t.Fatalf("%v: first call %+v, single-call stream %+v", tt, got, want)
		}
		if got := twice.At(tt); got != want {
			t.Fatalf("%v: repeated call %+v, first call %+v", tt, got, want)
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
