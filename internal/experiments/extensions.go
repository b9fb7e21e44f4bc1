package experiments

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/adaptive"
	"beesim/internal/deployment"
	"beesim/internal/parallel"
	"beesim/internal/routine"
	"beesim/internal/solar"
	"beesim/internal/units"
)

// This file holds the extension experiments beyond the paper's figures:
// the seasonal energy study, the five-hive apiary reproduction, and the
// adaptive-policy comparison the paper's future-work section sketches.

// SeasonPoint is one month's deployment summary.
type SeasonPoint struct {
	Month time.Month
	// RoutinesPerDay is the achieved data-collection cadence.
	RoutinesPerDay float64
	// MissedPerDay is the wake-ups lost to outages.
	MissedPerDay float64
	// HarvestPerDay and ConsumptionPerDay summarize the energy balance.
	HarvestPerDay     units.Joules
	ConsumptionPerDay units.Joules
}

// Seasonal runs the deployment simulation for a few days in every month
// of 2023 and summarizes the seasonal energy balance — quantifying how
// far the paper's spring observations generalize across the year.
func Seasonal(loc solar.Location, daysPerMonth int, wake time.Duration) ([]SeasonPoint, error) {
	if daysPerMonth <= 0 {
		return nil, errors.New("experiments: non-positive days per month")
	}
	// The twelve month-long deployments are independent (each already
	// owns a fixed per-month seed), so they fan out across the default
	// worker pool; the index-ordered merge keeps January first.
	return parallel.Map(0, 12, func(i int) (SeasonPoint, error) {
		m := time.January + time.Month(i)
		cfg := deployment.DefaultConfig()
		cfg.Location = loc
		cfg.Start = time.Date(2023, m, 10, 0, 0, 0, 0, time.UTC)
		cfg.Days = daysPerMonth
		cfg.WakePeriod = wake
		cfg.Seed = uint64(m)
		tr, err := deployment.Run(cfg)
		if err != nil {
			return SeasonPoint{}, fmt.Errorf("experiments: month %v: %w", m, err)
		}
		days := float64(daysPerMonth)
		return SeasonPoint{
			Month:             m,
			RoutinesPerDay:    float64(tr.Wakeups) / days,
			MissedPerDay:      float64(tr.MissedWakeups) / days,
			HarvestPerDay:     tr.HarvestedEnergy / units.Joules(days),
			ConsumptionPerDay: (tr.RecorderEnergy + tr.MonitorEnergy) / units.Joules(days),
		}, nil
	})
}

// ApiaryHive describes one deployed hive of the paper's fleet.
type ApiaryHive struct {
	Name     string
	Location solar.Location
	Seed     uint64
}

// paperApiary returns the paper's deployment: "Five smart beehives are
// currently deployed. Two are located to the South of Paris in Cachan,
// and the others are in Lyon."
func paperApiary() []ApiaryHive {
	return []ApiaryHive{
		{Name: "cachan-1", Location: solar.Cachan, Seed: 11},
		{Name: "cachan-2", Location: solar.Cachan, Seed: 12},
		{Name: "lyon-1", Location: solar.Lyon, Seed: 21},
		{Name: "lyon-2", Location: solar.Lyon, Seed: 22},
		{Name: "lyon-3", Location: solar.Lyon, Seed: 23},
	}
}

// ApiaryResult is one hive's trace summary.
type ApiaryResult struct {
	Hive  ApiaryHive
	Trace *deployment.Trace
}

// Apiary runs the full five-hive deployment for the given duration.
func Apiary(days int, wake time.Duration) ([]ApiaryResult, error) {
	if days <= 0 {
		return nil, errors.New("experiments: non-positive day count")
	}
	hives := paperApiary()
	// One deployment per hive, each on its own fixed seed: embarrassingly
	// parallel, merged back in fleet order.
	return parallel.Map(0, len(hives), func(i int) (ApiaryResult, error) {
		h := hives[i]
		cfg := deployment.DefaultConfig()
		cfg.Location = h.Location
		cfg.Days = days
		cfg.WakePeriod = wake
		cfg.Seed = h.Seed
		tr, err := deployment.Run(cfg)
		if err != nil {
			return ApiaryResult{}, fmt.Errorf("experiments: hive %s: %w", h.Name, err)
		}
		return ApiaryResult{Hive: h, Trace: tr}, nil
	})
}

// PolicyComparison runs the adaptive-orchestration study: the fixed
// deployed behaviour against the threshold and forecast controllers,
// through identical weather.
func PolicyComparison(cfg adaptive.Config) ([]adaptive.Result, error) {
	return adaptive.Compare(cfg,
		adaptive.FixedPolicy{Action: adaptive.Action{
			Period: 10 * time.Minute, Placement: routine.EdgeOnly}},
		adaptive.FixedPolicy{Action: adaptive.Action{
			Period: 2 * time.Hour, Placement: routine.EdgeOnly}},
		adaptive.DefaultThreshold(),
		adaptive.DefaultForecast(),
	)
}
