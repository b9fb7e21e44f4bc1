// Package routine assembles the edge device's duty cycles: the exact
// task timelines behind the paper's Table I (edge scenario) and Table II
// (edge+cloud scenario), and the Section-IV measurement campaign whose
// statistics calibrate everything downstream.
//
// A cycle covers one wake-up period. In the edge scenario the Raspberry
// Pi 3B+ wakes, collects data, runs the queen-detection model locally,
// sends only the result, and shuts down. In the edge+cloud scenario it
// uploads the audio instead and the cloud executes the model while the
// edge is still shutting down — which is why the tables split the
// shutdown row in two at the model-execution boundary.
package routine

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/rng"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// Model selects the queen-detection classifier.
type Model int

// Queen-detection model choices of Section V.
const (
	SVM Model = iota
	CNN
)

// String returns the model's name.
func (m Model) String() string {
	switch m {
	case SVM:
		return "SVM"
	case CNN:
		return "CNN"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Placement selects where the service runs.
type Placement int

// The two scenarios of Section V.
const (
	// EdgeOnly: collect, infer locally, send only the result.
	EdgeOnly Placement = iota
	// EdgeCloud: collect, upload audio, the cloud infers.
	EdgeCloud
)

// String returns the placement's name.
func (p Placement) String() string {
	switch p {
	case EdgeOnly:
		return "edge"
	case EdgeCloud:
		return "edge+cloud"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Spec selects one scenario variant.
type Spec struct {
	Period    time.Duration
	Model     Model
	Placement Placement
}

// Cycle is a fully assembled wake-up cycle: parallel edge and cloud task
// timelines covering exactly one period.
type Cycle struct {
	Spec       Spec
	EdgeTasks  []power.Task
	CloudTasks []power.Task // empty in the edge scenario
}

// EdgeEnergy returns the edge device's energy over the cycle.
func (c Cycle) EdgeEnergy() units.Joules {
	e, _ := power.Sum(c.EdgeTasks)
	return e
}

// CloudEnergy returns the cloud server's energy over the cycle (zero in
// the edge scenario).
func (c Cycle) CloudEnergy() units.Joules {
	e, _ := power.Sum(c.CloudTasks)
	return e
}

// Duration returns the edge timeline length (always the full period).
func (c Cycle) Duration() time.Duration {
	_, d := power.Sum(c.EdgeTasks)
	return d
}

// Trace emits the cycle's task timelines into tr starting at start: the
// edge tasks on the routine track and the cloud tasks on the server
// track, each span carrying its joules and mean watts. This is Table
// I/II as a timeline — load the JSON in Perfetto to see the shutdown
// split of the edge+cloud scenario. A nil tracer is a no-op.
func (c Cycle) Trace(tr *obs.Tracer, start time.Time) {
	c.TraceCtx(tr, start, nil)
}

// TraceCtx is Trace with span identity: each task span becomes a child
// of sc (kinds "edge"/"cloud", indexed by task position) so the whole
// wake-up joins one causal trace. A nil sc is exactly Trace.
func (c Cycle) TraceCtx(tr *obs.Tracer, start time.Time, sc *obs.SpanContext) {
	traceTasks(tr, "edge", obs.TidRoutine, start, c.EdgeTasks, sc)
	traceTasks(tr, "cloud", obs.TidServer, start, c.CloudTasks, sc)
}

func traceTasks(tr *obs.Tracer, cat string, tid int, start time.Time, tasks []power.Task, sc *obs.SpanContext) {
	at := start
	for i, t := range tasks {
		args := map[string]any{
			"joules": float64(t.Energy),
			"watts":  float64(t.Power()),
		}
		if sc != nil {
			tr.SpanCtx(sc.Child(cat, uint64(i)), t.Name, cat, tid, at, t.Duration, args)
		} else {
			tr.Span(t.Name, cat, tid, at, t.Duration, args)
		}
		at = at.Add(t.Duration)
	}
}

// RecordLedger appends the cycle's task timelines to the energy ledger
// starting at start — the ledger twin of Trace. Edge tasks draw from
// the hive's battery, so they are store-bound ("battery"); cloud tasks
// run on grid power and enter as attribution-only entries, keeping them
// out of the battery's conservation balance while still visible in
// per-task breakdowns (Table II's right-hand column). It returns the
// time after the edge timeline. A nil ledger records nothing.
func (c Cycle) RecordLedger(lg *ledger.Ledger, hive string, start time.Time) time.Time {
	end := power.RecordTasks(lg, start, hive, "edge", "pi3b", "battery", c.EdgeTasks)
	power.RecordTasks(lg, start, hive, "cloud", "server", "", c.CloudTasks)
	return end
}

// Build assembles the cycle for a spec from the calibrated device models.
// It fails if the period cannot contain the active tasks.
func Build(pi power.Pi3B, cloud power.Cloud, spec Spec) (Cycle, error) {
	if spec.Period <= 0 {
		return Cycle{}, errors.New("routine: non-positive period")
	}
	switch spec.Placement {
	case EdgeOnly:
		return buildEdge(pi, spec)
	case EdgeCloud:
		return buildEdgeCloud(pi, cloud, spec)
	default:
		return Cycle{}, fmt.Errorf("routine: unknown placement %d", spec.Placement)
	}
}

func buildEdge(pi power.Pi3B, spec Spec) (Cycle, error) {
	var infer power.Task
	switch spec.Model {
	case SVM:
		infer = pi.InferSVM()
	case CNN:
		infer = pi.InferCNN()
	default:
		return Cycle{}, fmt.Errorf("routine: unknown model %d", spec.Model)
	}
	active := []power.Task{pi.WakeAndCollect(), infer, pi.SendResults(), pi.Shutdown()}
	_, activeDur := power.Sum(active)
	if activeDur >= spec.Period {
		return Cycle{}, fmt.Errorf("routine: active tasks (%v) exceed period %v",
			activeDur, spec.Period)
	}
	tasks := append([]power.Task{pi.Sleep(spec.Period - activeDur)}, active...)
	return Cycle{Spec: spec, EdgeTasks: tasks}, nil
}

func buildEdgeCloud(pi power.Pi3B, cloud power.Cloud, spec Spec) (Cycle, error) {
	var exec power.Task
	switch spec.Model {
	case SVM:
		exec = cloud.ExecSVM()
	case CNN:
		exec = cloud.ExecCNN()
	default:
		return Cycle{}, fmt.Errorf("routine: unknown model %d", spec.Model)
	}
	collect := pi.WakeAndCollect()
	send := pi.SendAudio()
	shutdown := pi.Shutdown()
	if exec.Duration >= shutdown.Duration {
		return Cycle{}, fmt.Errorf(
			"routine: cloud execution (%v) outlasts the edge shutdown (%v); the table split assumes otherwise",
			exec.Duration, shutdown.Duration)
	}

	activeDur := collect.Duration + send.Duration + shutdown.Duration
	if activeDur >= spec.Period {
		return Cycle{}, fmt.Errorf("routine: active tasks (%v) exceed period %v",
			activeDur, spec.Period)
	}
	sleep := pi.Sleep(spec.Period - activeDur)

	// The shutdown is split at the instant the cloud finishes executing
	// the model, mirroring the two shutdown rows of Table II.
	shutdownPower := shutdown.Power()
	shutdownA := power.Task{
		Name:     "Shutdown",
		Energy:   shutdownPower.Energy(exec.Duration),
		Duration: exec.Duration,
	}
	shutdownB := power.Task{
		Name:     "Shutdown",
		Energy:   shutdown.Energy - shutdownA.Energy,
		Duration: shutdown.Duration - exec.Duration,
	}

	edge := []power.Task{sleep, collect, send, shutdownA, shutdownB}
	cloudTasks := []power.Task{
		cloud.Idle(sleep.Duration),
		cloud.Idle(collect.Duration),
		cloud.Receive(),
		exec,
		cloud.Idle(shutdownB.Duration),
	}
	return Cycle{Spec: spec, EdgeTasks: edge, CloudTasks: cloudTasks}, nil
}

// CampaignStats summarizes a simulated Section-IV measurement campaign.
type CampaignStats struct {
	Routines     int
	MeanDuration time.Duration
	SDDuration   time.Duration
	MeanPower    units.Watts
	SDPower      units.Watts
	MeanEnergy   units.Joules
}

// campaignBatch is the fixed number of routines per parallel campaign
// batch. It is part of the determinism contract, not a tuning knob:
// each batch owns an rng stream keyed by its batch index, so changing
// the batch size changes which draws land in which routine. Worker
// counts only decide who evaluates a batch, never where it starts.
const campaignBatch = 64

// campaignSample is one routine's duration and energy.
type campaignSample struct {
	seconds float64
	joules  float64
}

// SimulateCampaignParallel replays n data-collection routines (boot,
// collect, upload over the jittery link, shutdown) and summarizes them
// the way Section IV does. The paper's campaign: 319 routines, mean
// 1 m 29 s, sigma 3.5 s, mean power 2.14 W, sigma 0.009 W, 190.1 J per
// routine.
//
// Only the transfer length varies between routines, and the transfer
// runs at the send-audio power. This is why the paper sees a large
// duration spread (sigma 3.5 s) but nearly constant mean power (sigma
// 0.009 W): the send power (2.49 W) is close to the routine mean
// (2.14 W), so stretching the transfer barely moves the average.
//
// Fixed-size batches of routines fan out across workers. Every batch
// builds its own link whose seed is the rng.StreamSeed of (cfg.Seed,
// batch index), so the sampled transfers are a pure function of the
// configuration — byte-identical for every worker count, including the
// workers=1 serial path. The Welford accumulation happens in a serial
// pass over the batch-ordered samples because its float sums are
// order-sensitive.
func SimulateCampaignParallel(pi power.Pi3B, cfg netsim.Config, n, workers int) (CampaignStats, error) {
	if n <= 0 {
		return CampaignStats{}, errors.New("routine: campaign needs n > 0")
	}
	routine := pi.Routine()
	send := pi.SendAudio()
	fixedDur := routine.Duration - send.Duration
	fixedEnergy := routine.Energy - send.Energy

	batches := (n + campaignBatch - 1) / campaignBatch
	sampled, err := parallel.Map(workers, batches, func(b int) ([]campaignSample, error) {
		linkCfg := cfg
		linkCfg.Seed = rng.StreamSeed(cfg.Seed, uint64(b))
		link, err := netsim.NewLink(linkCfg)
		if err != nil {
			return nil, err
		}
		size := campaignBatch
		if rest := n - b*campaignBatch; rest < size {
			size = rest
		}
		out := make([]campaignSample, size)
		for i := range out {
			tr := link.Send(netsim.RoutinePayload())
			d := fixedDur + tr.Duration
			e := float64(fixedEnergy) + float64(send.Power().Energy(tr.Duration))
			out[i] = campaignSample{seconds: d.Seconds(), joules: e}
		}
		return out, nil
	})
	if err != nil {
		return CampaignStats{}, err
	}

	var durs, powers, energies stats.Online
	for _, batch := range sampled {
		for _, s := range batch {
			durs.Add(s.seconds)
			powers.Add(s.joules / s.seconds)
			energies.Add(s.joules)
		}
	}
	return CampaignStats{
		Routines:     n,
		MeanDuration: time.Duration(durs.Mean() * float64(time.Second)),
		SDDuration:   time.Duration(durs.StdDev() * float64(time.Second)),
		MeanPower:    units.Watts(powers.Mean()),
		SDPower:      units.Watts(powers.StdDev()),
		MeanEnergy:   units.Joules(energies.Mean()),
	}, nil
}
