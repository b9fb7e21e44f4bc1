// Package sensors models the smart beehive's SHT31 temperature/humidity
// sensor on the queen excluder. It samples the ground-truth hive state
// with its datasheet accuracy as additive noise, and reports the read
// latency and electrical draw that the routine model charges to the edge
// device's energy budget.
package sensors

import (
	"time"

	"beesim/internal/hive"
	"beesim/internal/rng"
	"beesim/internal/units"
)

// Reading is a scalar sensor observation.
type Reading struct {
	Time  time.Time
	Value float64
	Unit  string
}

// SHT31 is the temperature/humidity sensor (datasheet: ±0.2 °C, ±2 % RH).
type SHT31 struct {
	TempAccuracy units.Celsius
	RHAccuracy   float64
	ReadLatency  time.Duration
	Draw         units.Watts
	r            *rng.Source
}

// NewSHT31 creates the sensor with datasheet characteristics.
func NewSHT31(seed uint64) *SHT31 {
	return &SHT31{
		TempAccuracy: 0.2,
		RHAccuracy:   0.02,
		ReadLatency:  15 * time.Millisecond,
		Draw:         0.005,
		r:            rng.New(seed),
	}
}

// Read samples the hive state.
func (s *SHT31) Read(t time.Time, st hive.State) (temp, rh Reading) {
	temp = Reading{
		Time:  t,
		Value: float64(st.InsideTemp) + s.r.Gaussian(0, float64(s.TempAccuracy)/2),
		Unit:  "C",
	}
	rh = Reading{
		Time:  t,
		Value: float64(st.InsideHumidity.Clamp()) + s.r.Gaussian(0, s.RHAccuracy/2),
		Unit:  "RH",
	}
	if rh.Value < 0 {
		rh.Value = 0
	}
	if rh.Value > 1 {
		rh.Value = 1
	}
	return temp, rh
}
