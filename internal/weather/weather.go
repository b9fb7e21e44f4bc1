// Package weather generates the synthetic meteorological traces that
// drive beesim's deployment simulation: outside temperature, relative
// humidity and cloud cover for the paper's two apiary sites.
//
// The paper overlays "the meteorological data" on the energy traces of
// Figure 2 and collects weather "at regular intervals" to complete the
// dataset. No archive of the real campaign exists, so we synthesize
// weather with the standard structure of mid-latitude data: a seasonal
// mean, a diurnal harmonic lagging solar noon, and mean-reverting
// (Ornstein-Uhlenbeck) noise for the irregular component. Cloud cover is
// an OU process squashed into [0,1], which yields realistic multi-hour
// overcast and clear spells.
package weather

import (
	"math"
	"time"

	"beesim/internal/rng"
	"beesim/internal/solar"
	"beesim/internal/units"
)

// Sample is the weather at one instant.
type Sample struct {
	Time        time.Time
	Temperature units.Celsius
	Humidity    units.RelativeHumidity
	CloudCover  float64 // fraction of sky covered, [0,1]
	Irradiance  units.WattsPerSquareMeter
}

// Config shapes a generator.
type Config struct {
	Location solar.Location
	// AnnualMean is the yearly mean temperature (°C); Paris ~ 12.
	AnnualMean float64
	// SeasonalAmplitude is the summer-winter half-swing (°C); Paris ~ 8.
	SeasonalAmplitude float64
	// DiurnalAmplitude is the day-night half-swing (°C).
	DiurnalAmplitude float64
	// TempNoiseSigma is the stationary stddev of the OU temperature noise.
	TempNoiseSigma float64
	// CloudMean biases cloudiness (0 clear .. 1 overcast).
	CloudMean float64
	// Seed fixes the stochastic component.
	Seed uint64
}

// DefaultConfig returns a mid-latitude France parameterization for the
// given site.
func DefaultConfig(loc solar.Location) Config {
	return Config{
		Location:          loc,
		AnnualMean:        12.5,
		SeasonalAmplitude: 8,
		DiurnalAmplitude:  5,
		TempNoiseSigma:    1.5,
		CloudMean:         0.45,
		Seed:              1,
	}
}

// Generator produces a weather trace when stepped forward in time.
// Generators are stateful (the OU noise) and must be stepped with
// non-decreasing timestamps.
type Generator struct {
	cfg       Config
	r         *rng.Source
	last      time.Time
	started   bool
	tempNoise float64
	cloudRaw  float64 // unsquashed OU state for cloud cover
	cloudMu   float64 // OU mean of cloudRaw: the logit of CloudMean
	step      ouStep  // discretization constants of the last dt
	memo      Sample  // the last sample At returned
}

// ouStep holds the exact-discretization constants of one step length:
// the decay a = exp(-dt/tau) and the noise scale sigma*sqrt(1-a*a) of
// each OU process. A run steps by one dt almost always, so advance
// computes them once per change of dt instead of once per step.
type ouStep struct {
	dt             time.Duration
	tempA, tempK   float64
	cloudA, cloudK float64
}

// NewGenerator creates a generator for the configuration.
func NewGenerator(cfg Config) *Generator {
	mu := logit(clamp(cfg.CloudMean, 0.02, 0.98))
	return &Generator{
		cfg:      cfg,
		r:        rng.New(cfg.Seed),
		cloudRaw: mu,
		cloudMu:  mu,
	}
}

// At returns the weather at time t, advancing the generator's stochastic
// state by the elapsed interval. Calling At with t before the previous
// call's time reuses the current noise state without advancing it, and
// calling it again at the previous call's instant returns that call's
// sample.
func (g *Generator) At(t time.Time) Sample {
	if g.started && t.Equal(g.memo.Time) {
		s := g.memo
		s.Time = t
		return s
	}
	if g.started {
		if dt := t.Sub(g.last); dt > 0 {
			g.advance(dt)
			g.last = t
		}
	} else {
		// Burn in the OU processes so the first sample is stationary.
		for i := 0; i < 48; i++ {
			g.advance(30 * time.Minute)
		}
		g.last = t
		g.started = true
	}

	temp := g.deterministicTemp(t) + g.tempNoise
	cloud := sigmoid(g.cloudRaw)
	irr := solar.Irradiance(g.cfg.Location, t, cloud)
	g.memo = Sample{
		Time:        t,
		Temperature: units.Celsius(temp),
		Humidity:    humidityFor(temp, cloud),
		CloudCover:  cloud,
		Irradiance:  irr,
	}
	return g.memo
}

// deterministicTemp is the seasonal + diurnal harmonic component.
func (g *Generator) deterministicTemp(t time.Time) float64 {
	ut := t.UTC()
	doy := float64(ut.YearDay())
	// Coldest around mid-January (doy ~15), warmest mid-July.
	seasonal := -g.cfg.SeasonalAmplitude * math.Cos(2*math.Pi*(doy-15)/365.25)
	hour := float64(ut.Hour()) + float64(ut.Minute())/60 + g.cfg.Location.TZOffsetH
	// Warmest ~15:00 local, coldest ~03:00.
	diurnal := g.cfg.DiurnalAmplitude * math.Cos(2*math.Pi*(hour-15)/24)
	return g.cfg.AnnualMean + seasonal + diurnal
}

// advance steps the OU noise processes by dt using exact discretization:
// x' = x*exp(-dt/tau) + sigma*sqrt(1-exp(-2dt/tau))*N(0,1).
func (g *Generator) advance(dt time.Duration) {
	if dt != g.step.dt {
		decay := func(tau time.Duration, sigma float64) (a, k float64) {
			a = math.Exp(-dt.Seconds() / tau.Seconds())
			return a, sigma * math.Sqrt(1-a*a)
		}
		g.step.dt = dt
		g.step.tempA, g.step.tempK = decay(12*time.Hour, g.cfg.TempNoiseSigma)
		g.step.cloudA, g.step.cloudK = decay(6*time.Hour, 1.2)
	}
	g.tempNoise = g.tempNoise*g.step.tempA + g.step.tempK*g.r.Norm()

	// Cloud: OU around the logit of the configured mean.
	dev := g.cloudRaw - g.cloudMu
	dev = dev*g.step.cloudA + g.step.cloudK*g.r.Norm()
	g.cloudRaw = g.cloudMu + dev
}

// humidityFor couples RH to temperature and cloudiness: cooler and
// cloudier air sits closer to saturation.
func humidityFor(tempC, cloud float64) units.RelativeHumidity {
	base := 0.85 - 0.012*(tempC-10) + 0.12*(cloud-0.5)
	return units.RelativeHumidity(base).Clamp()
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func logit(p float64) float64 { return math.Log(p / (1 - p)) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
