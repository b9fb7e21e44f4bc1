// Package deployment runs the device-level simulation of one deployed
// smart beehive: the discrete-event interplay of sun, clouds, battery,
// the always-on Pi Zero monitor, the duty-cycled Pi 3B+ recorder, and
// the colony being measured.
//
// This is the simulation behind Figure 2: a multi-day trace showing the
// recorder's consumption spikes at each wake-up, the in-hive and outside
// temperature/humidity, and the night-time outages the paper attributes
// to the solar panel's output voltage going to "uncontrolled values"
// after sunset.
package deployment

import (
	"errors"
	"time"

	"beesim/internal/battery"
	"beesim/internal/des"
	"beesim/internal/faults"
	"beesim/internal/hive"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/rng"
	"beesim/internal/routine"
	"beesim/internal/sensors"
	"beesim/internal/solar"
	"beesim/internal/timeseries"
	"beesim/internal/stats"
	"beesim/internal/units"
	"beesim/internal/weather"
)

// Config shapes a deployment run.
type Config struct {
	Location solar.Location
	Start    time.Time
	Days     int
	// WakePeriod is the Pi 3B+ wake-up period (10 min in Figure 2b).
	WakePeriod time.Duration
	// SampleEvery is the environment/trace sampling interval.
	SampleEvery time.Duration
	// Colony configures the hive biology (zero population = empty hive,
	// as at the start of the paper's trace).
	Colony hive.Config
	// InitialSoC is the battery's starting state of charge.
	InitialSoC float64
	// NightBrownout reproduces the deployed system's observed behaviour:
	// when the panel's light drops below its stability threshold, the
	// 5 V bus is unstable and both Pis shed load even if the battery
	// holds charge (the paper: "the low luminosity takes the solar
	// panel's output voltage to uncontrolled values, thus affecting the
	// batteries and the electronics").
	NightBrownout bool
	Seed          uint64

	// Metrics, when non-nil, receives counters/gauges/histograms from
	// the engine, battery, uplink and routine probes (see
	// docs/OBSERVABILITY.md for the name reference).
	Metrics *obs.Registry
	// Tracer, when non-nil, records the run as a Chrome trace_event
	// timeline keyed by virtual time: per-wakeup routine spans with
	// joules, uplink transfer spans, battery brownout instants and a
	// state-of-charge counter track.
	Tracer *obs.Tracer
	// TraceEngineEvents additionally records every DES scheduled/fired/
	// cancelled event as an instant (verbose; off by default).
	TraceEngineEvents bool

	// Faults, when non-nil, arms the deterministic fault injector: the
	// plan's windows are anchored at Start, its seed drives every
	// stochastic fault decision, and its retry policy (or the default)
	// governs uplink retries. A nil plan keeps the run on the exact
	// fault-free path with byte-identical outputs.
	Faults *faults.Plan

	// Ledger, when non-nil, records every energy flow of the run as a
	// typed entry: panel production, battery charge (harvest), monitor
	// and recorder consumption, radio overlay, discharge losses — plus
	// the battery's initial/final stored energy, so the export is
	// auditable for conservation offline. Entries are keyed by virtual
	// time, making equal-seed exports byte-identical.
	Ledger *ledger.Ledger
	// HiveID labels the ledger entries; defaults to the location name.
	HiveID string
}

// DefaultConfig reproduces the Figure 2 setting: a week in Cachan at a
// 10-minute wake-up period.
func DefaultConfig() Config {
	return Config{
		Location:      solar.Cachan,
		Start:         time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC),
		Days:          7,
		WakePeriod:    10 * time.Minute,
		SampleEvery:   time.Minute,
		Colony:        hive.DefaultConfig(),
		InitialSoC:    0.8,
		NightBrownout: true,
		Seed:          1,
	}
}

// Trace is the simulation output: the series Figure 2 plots plus
// summary counters.
type Trace struct {
	// RecorderPower is the Pi 3B+ supply power (the spiky red line of
	// Figure 2b); zero samples are omitted while the system is down.
	RecorderPower *timeseries.Series
	// InsideTemp/InsideHumidity are the SHT31 readings at each wake-up.
	InsideTemp     *timeseries.Series
	InsideHumidity *timeseries.Series
	// OutsideTemp/OutsideHumidity are the weather overlays.
	OutsideTemp     *timeseries.Series
	OutsideHumidity *timeseries.Series
	// BatterySoC tracks the energy buffer.
	BatterySoC *timeseries.Series
	// PanelPower is the harvested power after the converter.
	PanelPower *timeseries.Series

	// Wakeups counts completed data-collection routines.
	Wakeups int
	// MissedWakeups counts wake signals that found the system down.
	MissedWakeups int
	// Outages counts transitions into the down state.
	Outages int
	// RecorderEnergy is the Pi 3B+ total over the run.
	RecorderEnergy units.Joules
	// MonitorEnergy is the Pi Zero total over the run.
	MonitorEnergy units.Joules
	// HarvestedEnergy is the panel total over the run.
	HarvestedEnergy units.Joules

	// Fault/recovery counters; all zero unless Config.Faults is armed.
	//
	// FailedUploads counts wake-ups whose upload exhausted the retry
	// budget; their payloads go to the buffer. FlushedUploads counts
	// buffered payloads delivered on a later wake-up, DroppedUploads
	// payloads evicted from the full buffer, and BufferedUploads
	// payloads still queued at the end of the run. UploadRetries counts
	// attempts beyond each upload's first; RetryEnergy is the radio
	// energy those failed attempts burned. SensorDropouts counts
	// wake-ups whose SHT31 reading was lost to an injected sensor
	// fault. Brownouts counts injected battery brownout windows
	// entered.
	FailedUploads   int
	FlushedUploads  int
	DroppedUploads  int
	BufferedUploads int
	UploadRetries   int
	RetryEnergy     units.Joules
	SensorDropouts  int
	Brownouts       int
}

// Metric names emitted by an instrumented deployment run.
const (
	MetricWakeups       = "deployment_wakeups_total"
	MetricMissedWakeups = "deployment_missed_wakeups_total"
	MetricOutages       = "deployment_outages_total"
	MetricHarvestJ      = "deployment_harvest_j_total"
	MetricRecorderJ     = "deployment_recorder_j_total"
	MetricMonitorJ      = "deployment_monitor_j_total"
	MetricRoutineSecs   = "deployment_routine_seconds"
	// MetricWakeupJ distributes the edge energy of each wake-up routine
	// (fixed routine work plus radio-busy transmit time), so per-cycle
	// energy percentiles — joules per detection — are queryable next to
	// the duration percentiles.
	MetricWakeupJ = "deployment_wakeup_j"
)

// Metric names emitted only when Config.Faults is armed, so fault-free
// metric snapshots stay byte-identical to earlier releases.
const (
	MetricUploadFailures = "deployment_upload_failures_total"
	MetricUploadsFlushed = "deployment_uploads_flushed_total"
	MetricUploadsDropped = "deployment_uploads_dropped_total"
	MetricUploadRetries  = "deployment_upload_retries_total"
	MetricSensorDropouts = "deployment_sensor_dropouts_total"
)

// Run executes the deployment simulation.
func Run(cfg Config) (*Trace, error) {
	if cfg.Days <= 0 {
		return nil, errors.New("deployment: non-positive day count")
	}
	if cfg.WakePeriod <= 0 || cfg.SampleEvery <= 0 {
		return nil, errors.New("deployment: non-positive period")
	}
	if cfg.Start.IsZero() {
		return nil, errors.New("deployment: zero start time")
	}

	sim := des.New(cfg.Start)
	wxCfg := weather.DefaultConfig(cfg.Location)
	wxCfg.Seed = cfg.Seed
	wx := weather.NewGenerator(wxCfg)
	colony := hive.New(cfg.Colony)
	panel := solar.DefaultPanel()
	pack, err := battery.New(battery.DefaultConfig(), cfg.InitialSoC)
	if err != nil {
		return nil, err
	}
	pi := power.DefaultPi3B()
	zero := power.DefaultPiZero()
	sht := sensors.NewSHT31(cfg.Seed + 1)
	link, err := netsim.NewLink(netsim.DefaultConfig())
	if err != nil {
		return nil, err
	}

	tr := &Trace{
		RecorderPower:   timeseries.New("recorder power", "W"),
		InsideTemp:      timeseries.New("inside temperature", "C"),
		InsideHumidity:  timeseries.New("inside humidity", "RH"),
		OutsideTemp:     timeseries.New("outside temperature", "C"),
		OutsideHumidity: timeseries.New("outside humidity", "RH"),
		BatterySoC:      timeseries.New("battery SoC", ""),
		PanelPower:      timeseries.New("panel power", "W"),
	}

	// Observability: attach the engine, battery and uplink probes, label
	// the trace tracks, and build the deployment's own instruments. With
	// cfg.Metrics and cfg.Tracer nil this is all wired to no-ops.
	des.Instrument(sim, cfg.Metrics, cfg.Tracer, cfg.TraceEngineEvents)
	pack.Instrument(cfg.Metrics, cfg.Tracer, sim.Now)
	link.Instrument(cfg.Metrics, cfg.Tracer, sim.Now)
	hiveID := cfg.HiveID
	if hiveID == "" {
		hiveID = cfg.Location.Name
	}
	pack.AttachLedger(cfg.Ledger, hiveID, sim.Now)
	link.AttachLedger(cfg.Ledger, hiveID, sim.Now)
	meter := solar.NewMeter(cfg.Ledger, hiveID)
	initialStoredJ := float64(pack.Stored().Joules())
	if cfg.Tracer != nil {
		cfg.Tracer.SetThreadName(obs.TidRoutine, "recorder routine")
		cfg.Tracer.SetThreadName(obs.TidPower, "power")
		cfg.Tracer.SetThreadName(obs.TidNetwork, "uplink")
	}
	mWakeups := cfg.Metrics.Counter(MetricWakeups)
	mMissed := cfg.Metrics.Counter(MetricMissedWakeups)
	mOutages := cfg.Metrics.Counter(MetricOutages)
	mHarvest := cfg.Metrics.Counter(MetricHarvestJ)
	mRecorder := cfg.Metrics.Counter(MetricRecorderJ)
	mMonitor := cfg.Metrics.Counter(MetricMonitorJ)
	hRoutine := cfg.Metrics.Histogram(MetricRoutineSecs)
	hWakeupJ := cfg.Metrics.Histogram(MetricWakeupJ)

	// Fault injection: arm the uplink with retries, prepare the
	// buffer-and-drain queue, and register the fault counters — all
	// skipped for a nil or empty plan. An empty plan injects nothing,
	// so treating it as nil keeps every output (including the metrics
	// snapshot, which lists registered-but-zero counters) byte-identical
	// to a fault-free build.
	var inj *faults.Injector
	var buf *routine.UploadBuffer
	var mUploadFail, mFlushed, mDropped, mRetries, mSensorDrop *obs.Counter
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		inj, err = faults.NewInjector(*cfg.Faults, cfg.Start)
		if err != nil {
			return nil, err
		}
		if err := link.AttachFaults(inj, cfg.Faults.RetryOrDefault(), cfg.Metrics); err != nil {
			return nil, err
		}
		buf = routine.NewUploadBuffer(routine.DefaultUploadBufferCap)
		mUploadFail = cfg.Metrics.Counter(MetricUploadFailures)
		mFlushed = cfg.Metrics.Counter(MetricUploadsFlushed)
		mDropped = cfg.Metrics.Counter(MetricUploadsDropped)
		mRetries = cfg.Metrics.Counter(MetricUploadRetries)
		mSensorDrop = cfg.Metrics.Counter(MetricSensorDropouts)
	}

	systemUp := true
	routineUntil := cfg.Start // recorder is active until this time
	send := pi.SendAudio()
	routineTask := pi.Routine()
	fixedDur := routineTask.Duration - send.Duration
	fixedEnergy := routineTask.Energy - send.Energy

	// Environment tick: harvest, draw the always-on loads, record.
	envTick := func() {
		now := sim.Now()
		sample := wx.At(now)
		irr := sample.Irradiance
		pv, stable := panel.Output(irr)

		// Harvest into the battery over the interval.
		if pv > 0 {
			meter.Record(now, pv, cfg.SampleEvery)
			got := pack.Charge(pv, cfg.SampleEvery)
			tr.HarvestedEnergy += got
			mHarvest.Add(float64(got))
		}

		wasUp := systemUp
		if cfg.NightBrownout {
			systemUp = stable
		} else {
			systemUp = pack.LoadConnected()
		}
		if inj != nil {
			// Injected faults override the weather: a battery brownout
			// opens the pack's load path and a node crash (or its
			// reboot tail) takes the whole system down.
			bo := inj.BatteryBrownout(now)
			pack.SetBrownout(bo)
			if bo || !inj.NodeUp(now) {
				systemUp = false
			}
		}
		if wasUp && !systemUp {
			tr.Outages++
			mOutages.Inc()
			cfg.Tracer.Instant("outage", "deployment", obs.TidPower, now, nil)
		}

		if systemUp {
			// Continuous loads: monitor + recorder baseline.
			recorderPower := pi.SleepPower
			if now.Before(routineUntil) {
				recorderPower = routineTask.Power()
			}
			load := zero.ActivePower + recorderPower
			sustained := pack.Discharge(load, cfg.SampleEvery)
			frac := float64(sustained) / float64(cfg.SampleEvery)
			monJ := units.Joules(float64(zero.ActivePower.Energy(cfg.SampleEvery)) * frac)
			recJ := units.Joules(float64(recorderPower.Energy(cfg.SampleEvery)) * frac)
			tr.MonitorEnergy += monJ
			tr.RecorderEnergy += recJ
			mMonitor.Add(float64(monJ))
			mRecorder.Add(float64(recJ))
			if cfg.Ledger != nil && sustained > 0 {
				// monJ + recJ equals exactly the energy the pack
				// delivered over the (possibly partial) interval, so
				// these two entries close the conservation balance
				// against the battery's own harvest and loss entries.
				cfg.Ledger.Append(ledger.Entry{
					T: now, Hive: hiveID, Device: "monitor", Component: "pi-zero",
					Task: "energy monitor", Dir: ledger.Consume,
					Joules: float64(monJ), Seconds: sustained.Seconds(),
					Store: "battery",
				})
				cfg.Ledger.Append(ledger.Entry{
					T: now, Hive: hiveID, Device: "edge", Component: "pi3b",
					Task:   recorderTaskName(now.Before(routineUntil)),
					Dir:    ledger.Consume,
					Joules: float64(recJ), Seconds: sustained.Seconds(),
					Store: "battery",
				})
			}
			if sustained < cfg.SampleEvery {
				systemUp = false
				tr.Outages++
				mOutages.Inc()
				cfg.Tracer.Instant("outage", "deployment", obs.TidPower, now, nil)
			} else {
				tr.RecorderPower.MustAppend(now, float64(recorderPower))
			}
		}

		tr.OutsideTemp.MustAppend(now, float64(sample.Temperature))
		tr.OutsideHumidity.MustAppend(now, float64(sample.Humidity))
		tr.BatterySoC.MustAppend(now, pack.SoC())
		tr.PanelPower.MustAppend(now, float64(pv))
		cfg.Tracer.Sample("hive power", obs.TidPower, now, map[string]any{
			"battery_soc":  pack.SoC(),
			"panel_watts":  float64(pv),
			"irradiance_w": float64(irr),
		})
	}

	// Wake-up tick: the Pi Zero signals the Pi 3B+ over GPIO.
	wakeTick := func() {
		now := sim.Now()
		if !systemUp {
			tr.MissedWakeups++
			mMissed.Inc()
			cfg.Tracer.Instant("missed wake-up", "deployment", obs.TidRoutine, now, nil)
			return
		}
		tr.Wakeups++
		mWakeups.Inc()
		// Root span of this wake-up's causal trace. The identity is a
		// pure hash of (seed, hive, wake-up index) — see obs.NewRootSpan
		// — so replica traces are byte-identical at any worker count.
		// With no tracer armed sc stays nil and every *Ctx call below
		// collapses to its untraced twin.
		var sc *obs.SpanContext
		if cfg.Tracer != nil {
			sc = obs.NewRootSpan(cfg.Seed, hiveID, uint64(tr.Wakeups-1))
		}
		upSC := sc.Child("upload", 0)
		if inj == nil {
			// Fault-free path, byte-identical to earlier releases.
			// Routine duration varies with the link (Section IV).
			transfer := link.SendSpan(now, netsim.RoutinePayload(), upSC).Transfer
			routineDur := fixedDur + transfer.Duration
			routineUntil = now.Add(routineDur)
			hRoutine.ObserveExemplar(routineDur.Seconds(), sc)
			wakeJ := float64(fixedEnergy) + float64(send.Power().Energy(transfer.Duration))
			hWakeupJ.ObserveExemplar(wakeJ, sc)
			if sc != nil {
				cfg.Tracer.SpanCtx(sc.Child("compute", 0), "compute", "deployment",
					obs.TidRoutine, now.Add(transfer.Duration), fixedDur,
					map[string]any{"joules": float64(fixedEnergy)})
			}
			cfg.Tracer.SpanCtx(sc, "wake-up routine", "deployment", obs.TidRoutine, now, routineDur,
				map[string]any{
					"joules":         wakeJ,
					"transfer_bytes": int64(transfer.Payload),
					"transfer_us":    transfer.Duration.Microseconds(),
				})
		} else {
			// Fault-aware path: retry the upload under the armed
			// policy, buffer it on failure, and drain the backlog
			// behind a successful send. The radio-busy time (attempts,
			// backoff waits, transfers) extends the routine, so the
			// battery accounting in envTick prices every retry
			// automatically.
			out := link.SendSpan(now, netsim.RoutinePayload(), upSC)
			tr.UploadRetries += out.Attempts - 1
			mRetries.Add(float64(out.Attempts - 1))
			tr.RetryEnergy += out.RetryEnergy
			busy := out.TotalDuration
			if out.Delivered {
				t := now.Add(busy)
				var drainRetryE stats.Kahan
				for drainIdx := uint64(1); buf.Len() > 0; drainIdx++ {
					p, _ := buf.Pop()
					drain := link.SendSpan(t, p, sc.Child("drain", drainIdx))
					tr.UploadRetries += drain.Attempts - 1
					mRetries.Add(float64(drain.Attempts - 1))
					drainRetryE.Add(float64(drain.RetryEnergy))
					busy += drain.TotalDuration
					if !drain.Delivered {
						buf.PushFront(p)
						break
					}
					tr.FlushedUploads++
					mFlushed.Inc()
					t = t.Add(drain.TotalDuration)
				}
				tr.RetryEnergy += units.Joules(drainRetryE.Sum())
			} else {
				tr.FailedUploads++
				mUploadFail.Inc()
				if buf.Push(netsim.RoutinePayload()) {
					tr.DroppedUploads++
					mDropped.Inc()
				}
				cfg.Tracer.InstantCtx(sc, "upload failed", "deployment", obs.TidNetwork, now,
					map[string]any{"attempts": out.Attempts})
			}
			routineDur := fixedDur + busy
			routineUntil = now.Add(routineDur)
			hRoutine.ObserveExemplar(routineDur.Seconds(), sc)
			wakeJ := float64(fixedEnergy) + float64(send.Power().Energy(busy))
			hWakeupJ.ObserveExemplar(wakeJ, sc)
			if sc != nil {
				cfg.Tracer.SpanCtx(sc.Child("compute", 0), "compute", "deployment",
					obs.TidRoutine, now.Add(busy), fixedDur,
					map[string]any{"joules": float64(fixedEnergy)})
			}
			cfg.Tracer.SpanCtx(sc, "wake-up routine", "deployment", obs.TidRoutine, now, routineDur,
				map[string]any{
					"joules":    wakeJ,
					"attempts":  out.Attempts,
					"delivered": out.Delivered,
				})
		}

		// Sensor readings at the queen excluder; an injected sensor
		// dropout silences the reading (inj nil-safe: always OK).
		if inj.SensorOK(now) {
			st := colony.StateAt(wx.At(now))
			temp, rh := sht.Read(now, st)
			tr.InsideTemp.MustAppend(now, temp.Value)
			tr.InsideHumidity.MustAppend(now, rh.Value)
		} else {
			tr.SensorDropouts++
			mSensorDrop.Inc()
			cfg.Tracer.Instant("sensor dropout", "deployment", obs.TidRoutine, now, nil)
		}
	}

	if _, err := sim.Every(cfg.SampleEvery, envTick); err != nil {
		return nil, err
	}
	if _, err := sim.Every(cfg.WakePeriod, wakeTick); err != nil {
		return nil, err
	}
	sim.Run(cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour))
	cfg.Ledger.SetStore(hiveID, "battery", initialStoredJ, float64(pack.Stored().Joules()))
	if buf != nil {
		tr.BufferedUploads = buf.Len()
		tr.DroppedUploads = buf.Dropped()
	}
	tr.Brownouts = pack.Brownouts()
	return tr, nil
}

// RunReplicas executes n independent replicas of the deployment,
// fanning them across workers (0 = process default, 1 = serial).
// Replica i runs cfg with its seed replaced by the rng stream seed of
// (cfg.Seed, i), so the ensemble is a pure function of the
// configuration: byte-identical traces for every worker count, and
// replica 0 differs from a plain Run(cfg) only in the derived seed.
//
// Instrumentation sinks are per-run mutable state, so an instrumented
// config cannot fan out; attach Metrics/Tracer/Ledger to single runs
// instead.
func RunReplicas(cfg Config, n, workers int) ([]*Trace, error) {
	if n <= 0 {
		return nil, errors.New("deployment: replica ensemble needs n > 0")
	}
	if cfg.Metrics != nil || cfg.Tracer != nil || cfg.Ledger != nil {
		return nil, errors.New("deployment: replica ensembles cannot share Metrics/Tracer/Ledger sinks")
	}
	return parallel.Map(workers, n, func(i int) (*Trace, error) {
		rcfg := cfg
		rcfg.Seed = rng.StreamSeed(cfg.Seed, uint64(i))
		return Run(rcfg)
	})
}

// recorderTaskName labels the recorder's draw by its duty-cycle phase.
func recorderTaskName(active bool) string {
	if active {
		return "Data collection routine"
	}
	return "Sleep"
}
