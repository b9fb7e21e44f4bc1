// Package adaptive implements the paper's stated future work: "build
// connected beehives' intelligence to tune its parameters and choose
// between a set of scenarios."
//
// A Controller runs on the smart beehive. Each cycle it observes the
// battery state of charge, the recent harvest, and a solar forecast, and
// decides two things the paper treats as fixed parameters:
//
//   - the wake-up period (Figure 3's ladder: 5, 10, 15, 30, 60, 120 min);
//   - the service placement (Section V's edge vs edge+cloud scenarios).
//
// The package also provides a cycle-level simulator to compare policies
// over multi-day weather, reporting data yield, energy and battery
// health — the experiment the paper's future-work section sketches.
package adaptive

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/battery"
	"beesim/internal/power"
	"beesim/internal/routine"
	"beesim/internal/solar"
	"beesim/internal/stats"
	"beesim/internal/units"
	"beesim/internal/weather"
)

// PeriodLadder is the paper's set of studied wake-up periods, fastest
// first.
var PeriodLadder = []time.Duration{
	5 * time.Minute, 10 * time.Minute, 15 * time.Minute,
	30 * time.Minute, 60 * time.Minute, 120 * time.Minute,
}

// Observation is what the controller sees at a decision point.
type Observation struct {
	Time time.Time
	// SoC is the battery state of charge in [0, 1].
	SoC float64
	// HarvestPower is the current panel output.
	HarvestPower units.Watts
	// ForecastDayJoules estimates the next 24 h of harvest.
	ForecastDayJoules units.Joules
}

// Action is the controller's decision for the next cycle.
type Action struct {
	Period    time.Duration
	Placement routine.Placement
}

// Policy decides the next cycle's parameters.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the action for the coming cycle.
	Decide(obs Observation) Action
}

// FixedPolicy always returns the same action — the paper's deployed
// behaviour, used as the baseline.
type FixedPolicy struct {
	Action Action
}

// Name implements Policy.
func (p FixedPolicy) Name() string {
	return fmt.Sprintf("fixed(%s,%s)", p.Action.Period, p.Action.Placement)
}

// Decide implements Policy.
func (p FixedPolicy) Decide(Observation) Action { return p.Action }

// ThresholdPolicy picks the period from the ladder by battery bands, and
// offloads to the cloud when energy runs low (the edge+cloud scenario
// spends 12% less at the hive).
type ThresholdPolicy struct {
	// HighSoC and LowSoC delimit the bands: above HighSoC the fastest
	// period is used; below LowSoC the slowest.
	HighSoC, LowSoC float64
}

// DefaultThreshold returns a conservative banded policy.
func DefaultThreshold() ThresholdPolicy {
	return ThresholdPolicy{HighSoC: 0.7, LowSoC: 0.3}
}

// Name implements Policy.
func (p ThresholdPolicy) Name() string { return "threshold" }

// Decide implements Policy.
func (p ThresholdPolicy) Decide(obs Observation) Action {
	n := len(PeriodLadder)
	var idx int
	switch {
	case obs.SoC >= p.HighSoC:
		idx = 0
	case obs.SoC <= p.LowSoC:
		idx = n - 1
	default:
		// Linear interpolation across the middle band.
		frac := (p.HighSoC - obs.SoC) / (p.HighSoC - p.LowSoC)
		idx = 1 + int(frac*float64(n-2))
		if idx > n-1 {
			idx = n - 1
		}
	}
	placement := routine.EdgeOnly
	if obs.SoC < p.LowSoC+0.2 {
		placement = routine.EdgeCloud
	}
	return Action{Period: PeriodLadder[idx], Placement: placement}
}

// ForecastPolicy budgets against tomorrow's predicted harvest: it picks
// the fastest period whose daily cost fits inside a fraction of the
// forecast plus the spendable battery margin.
type ForecastPolicy struct {
	// SpendFraction is how much of the forecast harvest the hive may
	// commit to (the rest covers model error and the monitor).
	SpendFraction float64
	// ReserveSoC is the battery level the policy refuses to plan below.
	ReserveSoC float64
	// Capacity is the battery capacity, for converting SoC margins into
	// joules.
	Capacity units.WattHours
}

// DefaultForecast returns the forecast-driven policy for the deployed
// 74 Wh pack.
func DefaultForecast() ForecastPolicy {
	return ForecastPolicy{SpendFraction: 0.6, ReserveSoC: 0.25, Capacity: 74}
}

// Name implements Policy.
func (p ForecastPolicy) Name() string { return "forecast" }

// Decide implements Policy.
func (p ForecastPolicy) Decide(obs Observation) Action {
	pi := power.DefaultPi3B()
	margin := units.Joules(0)
	if obs.SoC > p.ReserveSoC {
		margin = units.WattHours(float64(p.Capacity) * (obs.SoC - p.ReserveSoC)).Joules()
	}
	budget := units.Joules(float64(obs.ForecastDayJoules)*p.SpendFraction) + margin

	// The edge+cloud placement always spends less at the hive; use it
	// whenever the budget is tight (below twice the fastest-cadence cost).
	day := 24 * time.Hour
	costPerDay := func(period time.Duration, placement routine.Placement) units.Joules {
		cycles := float64(day) / float64(period)
		per := pi.AveragePower(period).Energy(period)
		if placement == routine.EdgeCloud {
			// The hive saves the inference but pays the upload: net ~12%
			// of the active share, from Tables I/II.
			saving := 0.12 * (float64(per) - float64(pi.SleepPower.Energy(period)))
			per -= units.Joules(saving)
		}
		return units.Joules(float64(per) * cycles)
	}

	for _, period := range PeriodLadder {
		for _, placement := range []routine.Placement{routine.EdgeOnly, routine.EdgeCloud} {
			if costPerDay(period, placement) <= budget {
				return Action{Period: period, Placement: placement}
			}
		}
	}
	return Action{Period: PeriodLadder[len(PeriodLadder)-1], Placement: routine.EdgeCloud}
}

// forecastDay estimates the next 24 h of usable panel output at a
// location given the current cloudiness persisting (a standard
// persistence forecast).
func forecastDay(loc solar.Location, panel solar.Panel, from time.Time, cloudCover float64) units.Joules {
	var total stats.Kahan
	const step = 15 * time.Minute
	for t := from; t.Before(from.Add(24 * time.Hour)); t = t.Add(step) {
		irr := solar.Irradiance(loc, t, cloudCover)
		if out, ok := panel.Output(irr); ok {
			total.Add(float64(out.Energy(step)))
		}
	}
	return units.Joules(total.Sum())
}

// Config shapes a policy-comparison simulation.
type Config struct {
	Location   solar.Location
	Start      time.Time
	Days       int
	InitialSoC float64
	Seed       uint64
}

// DefaultConfig simulates a week in Cachan starting from a half-charged
// pack (a protected power path — the brownout-free design — so the
// battery actually governs behaviour).
func DefaultConfig() Config {
	return Config{
		Location:   solar.Cachan,
		Start:      time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC),
		Days:       7,
		InitialSoC: 0.5,
		Seed:       1,
	}
}

// Result summarizes one policy's simulated run.
type Result struct {
	Policy string
	// Routines completed, and the data yield they represent (a routine
	// at a 5-minute cadence observes more than one at 120 minutes; yield
	// counts routines directly).
	Routines int
	// MissedRoutines counts cycles skipped because the battery was at
	// its cutoff.
	MissedRoutines int
	// EdgeEnergy is the hive's total consumption.
	EdgeEnergy units.Joules
	// CloudCycles counts cycles that offloaded to the cloud.
	CloudCycles int
	// MinSoC is the lowest battery level seen.
	MinSoC float64
	// FinalSoC is the battery level at the end.
	FinalSoC float64
}

// simulate runs one policy through the configured weather and battery.
func simulate(cfg Config, policy Policy) (Result, error) {
	if cfg.Days <= 0 {
		return Result{}, errors.New("adaptive: non-positive day count")
	}
	if policy == nil {
		return Result{}, errors.New("adaptive: nil policy")
	}
	wxCfg := weather.DefaultConfig(cfg.Location)
	wxCfg.Seed = cfg.Seed
	wx := weather.NewGenerator(wxCfg)
	panel := solar.DefaultPanel()
	pack, err := battery.New(battery.DefaultConfig(), cfg.InitialSoC)
	if err != nil {
		return Result{}, err
	}
	pi := power.DefaultPi3B()
	zero := power.DefaultPiZero()

	res := Result{Policy: policy.Name(), MinSoC: cfg.InitialSoC}
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	// Multi-day runs fold thousands of per-cycle quanta into the edge
	// total; compensated summation keeps the result order-exact.
	var edgeEnergy stats.Kahan
	now := cfg.Start
	for now.Before(end) {
		sample := wx.At(now)
		obs := Observation{
			Time:              now,
			SoC:               pack.SoC(),
			HarvestPower:      0,
			ForecastDayJoules: forecastDay(cfg.Location, panel, now, sample.CloudCover),
		}
		if out, ok := panel.Output(sample.Irradiance); ok {
			obs.HarvestPower = out
		}
		action := policy.Decide(obs)
		if action.Period <= 0 {
			return Result{}, fmt.Errorf("adaptive: policy %q returned period %v",
				policy.Name(), action.Period)
		}

		// Harvest over the cycle at the current irradiance (persistence
		// within a cycle; cycles are minutes long).
		if out, ok := panel.Output(sample.Irradiance); ok {
			pack.Charge(out, action.Period)
		}

		// Always-on loads: monitor + recorder sleep.
		base := zero.ActivePower + pi.SleepPower
		sustained := pack.Discharge(base, action.Period)
		edgeEnergy.Add(float64(base.Energy(sustained)))

		// The routine itself: the active energy above sleep, by placement.
		if sustained == action.Period {
			active := routineActiveEnergy(pi, action.Placement)
			dur := active.Duration(pi.Routine().Power())
			if got := pack.Discharge(active.Power(dur), dur); got == dur {
				res.Routines++
				edgeEnergy.Add(float64(active))
				if action.Placement == routine.EdgeCloud {
					res.CloudCycles++
				}
			} else {
				res.MissedRoutines++
			}
		} else {
			res.MissedRoutines++
		}

		if soc := pack.SoC(); soc < res.MinSoC {
			res.MinSoC = soc
		}
		now = now.Add(action.Period)
	}
	res.EdgeEnergy = units.Joules(edgeEnergy.Sum())
	res.FinalSoC = pack.SoC()
	return res, nil
}

// routineActiveEnergy returns the above-sleep energy of one cycle's
// active tasks for a placement, from the calibrated tables.
func routineActiveEnergy(pi power.Pi3B, p routine.Placement) units.Joules {
	collect := pi.WakeAndCollect()
	shutdown := pi.Shutdown()
	if p == routine.EdgeCloud {
		return collect.Energy + pi.SendAudio().Energy + shutdown.Energy
	}
	return collect.Energy + pi.InferCNN().Energy + pi.SendResults().Energy + shutdown.Energy
}

// Compare runs several policies through identical weather and returns
// their results in input order.
func Compare(cfg Config, policies ...Policy) ([]Result, error) {
	if len(policies) == 0 {
		return nil, errors.New("adaptive: no policies")
	}
	out := make([]Result, 0, len(policies))
	for _, p := range policies {
		r, err := simulate(cfg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
