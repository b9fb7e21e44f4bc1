package adaptive

import (
	"testing"
	"time"

	"beesim/internal/routine"
	"beesim/internal/solar"
	"beesim/internal/units"
)

func TestFixedPolicy(t *testing.T) {
	p := FixedPolicy{Action: Action{Period: 10 * time.Minute, Placement: routine.EdgeOnly}}
	a := p.Decide(Observation{SoC: 0.1})
	if a.Period != 10*time.Minute || a.Placement != routine.EdgeOnly {
		t.Fatalf("fixed policy changed its action: %+v", a)
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestThresholdPolicyBands(t *testing.T) {
	p := DefaultThreshold()
	full := p.Decide(Observation{SoC: 0.95})
	if full.Period != PeriodLadder[0] {
		t.Errorf("full battery period = %v, want fastest", full.Period)
	}
	if full.Placement != routine.EdgeOnly {
		t.Errorf("full battery placement = %v, want edge", full.Placement)
	}
	empty := p.Decide(Observation{SoC: 0.1})
	if empty.Period != PeriodLadder[len(PeriodLadder)-1] {
		t.Errorf("empty battery period = %v, want slowest", empty.Period)
	}
	if empty.Placement != routine.EdgeCloud {
		t.Errorf("empty battery placement = %v, want edge+cloud", empty.Placement)
	}
	// Monotone: lower SoC never speeds the cadence up.
	prev := time.Duration(0)
	for soc := 1.0; soc >= 0; soc -= 0.05 {
		a := p.Decide(Observation{SoC: soc})
		if a.Period < prev {
			t.Fatalf("period ladder not monotone at SoC %.2f", soc)
		}
		prev = a.Period
	}
}

func TestForecastDaySunnyVsOvercast(t *testing.T) {
	from := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	panel := solar.DefaultPanel()
	sunny := forecastDay(solar.Cachan, panel, from, 0)
	cloudy := forecastDay(solar.Cachan, panel, from, 1)
	if sunny <= cloudy {
		t.Fatalf("sunny forecast %v not above overcast %v", sunny, cloudy)
	}
	if sunny <= 0 {
		t.Fatal("zero sunny forecast")
	}
	// A clear April day on a 30 W panel yields a few hundred kJ.
	if float64(sunny) < 100e3 || float64(sunny) > 1e6 {
		t.Fatalf("sunny day forecast = %v, implausible", sunny)
	}
}

func TestForecastPolicyBudgets(t *testing.T) {
	p := DefaultForecast()
	rich := p.Decide(Observation{SoC: 0.9, ForecastDayJoules: 600e3})
	if rich.Period != PeriodLadder[0] {
		t.Errorf("rich budget period = %v, want fastest", rich.Period)
	}
	poor := p.Decide(Observation{SoC: 0.26, ForecastDayJoules: 5e3})
	if poor.Period < 30*time.Minute {
		t.Errorf("poor budget period = %v, want a slow cadence", poor.Period)
	}
	// Destitute: falls back to the slowest cloud cycle.
	broke := p.Decide(Observation{SoC: 0.1, ForecastDayJoules: 0})
	if broke.Period != PeriodLadder[len(PeriodLadder)-1] || broke.Placement != routine.EdgeCloud {
		t.Errorf("destitute action = %+v", broke)
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 0
	if _, err := simulate(cfg, DefaultThreshold()); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := simulate(DefaultConfig(), nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestSimulateFixedAggressiveDrainsInBadWeather(t *testing.T) {
	// A fixed 5-minute, edge-only cadence through a cloudy winter week
	// starting half-charged must miss routines; the threshold policy
	// must not.
	cfg := DefaultConfig()
	cfg.Start = time.Date(2023, 1, 5, 0, 0, 0, 0, time.UTC) // winter
	cfg.InitialSoC = 0.3
	cfg.Seed = 3

	aggressive, err := simulate(cfg, FixedPolicy{Action: Action{
		Period: 5 * time.Minute, Placement: routine.EdgeOnly}})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := simulate(cfg, DefaultThreshold())
	if err != nil {
		t.Fatal(err)
	}
	if aggressive.MissedRoutines == 0 {
		t.Fatalf("aggressive winter run missed nothing (minSoC %.2f)", aggressive.MinSoC)
	}
	// Deep winter can drive both to the protection cutoff; the adaptive
	// policy must never end up worse off.
	if adaptive.MinSoC < aggressive.MinSoC {
		t.Fatalf("adaptive minSoC %.2f below aggressive %.2f",
			adaptive.MinSoC, aggressive.MinSoC)
	}
	missRate := func(r Result) float64 {
		total := r.Routines + r.MissedRoutines
		if total == 0 {
			return 0
		}
		return float64(r.MissedRoutines) / float64(total)
	}
	if missRate(adaptive) >= missRate(aggressive) {
		t.Fatalf("adaptive miss rate %.2f not below aggressive %.2f",
			missRate(adaptive), missRate(aggressive))
	}
}

func TestSimulateSpringYields(t *testing.T) {
	// In sunny April the threshold policy should sustain a fast cadence:
	// clearly more routines than a fixed 2-hour baseline.
	cfg := DefaultConfig()
	slow, err := simulate(cfg, FixedPolicy{Action: Action{
		Period: 2 * time.Hour, Placement: routine.EdgeOnly}})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := simulate(cfg, DefaultThreshold())
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Routines <= 2*slow.Routines {
		t.Fatalf("adaptive yield %d not well above slow baseline %d",
			adaptive.Routines, slow.Routines)
	}
}

func TestSimulateEnergyAccounting(t *testing.T) {
	res, err := simulate(DefaultConfig(), DefaultThreshold())
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeEnergy <= 0 {
		t.Fatal("no energy recorded")
	}
	if res.MinSoC < 0 || res.MinSoC > 1 || res.FinalSoC < 0 || res.FinalSoC > 1 {
		t.Fatalf("SoC out of range: min %.2f final %.2f", res.MinSoC, res.FinalSoC)
	}
	if res.Policy != "threshold" {
		t.Fatalf("policy name = %q", res.Policy)
	}
}

func TestCompareRunsAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 2
	results, err := Compare(cfg,
		FixedPolicy{Action: Action{Period: 10 * time.Minute, Placement: routine.EdgeOnly}},
		DefaultThreshold(),
		DefaultForecast(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Routines+r.MissedRoutines == 0 {
			t.Fatalf("policy %q did nothing", r.Policy)
		}
	}
	if _, err := Compare(cfg); err == nil {
		t.Error("empty policy list accepted")
	}
}

func TestForecastPolicyOffloadsWhenTight(t *testing.T) {
	// In a tight budget the forecast policy should reach the edge+cloud
	// placement before giving up cadence entirely.
	p := DefaultForecast()
	sawCloud := false
	for f := 600e3; f >= 0; f -= 10e3 {
		a := p.Decide(Observation{SoC: 0.3, ForecastDayJoules: units.Joules(f)})
		if a.Placement == routine.EdgeCloud {
			sawCloud = true
			break
		}
	}
	if !sawCloud {
		t.Fatal("forecast policy never offloaded")
	}
}
