// Graceful degradation of the wake-up routine under uplink faults: a
// bounded buffer-and-drain queue for undelivered payloads, a local
// inference fallback while the cloud is unreachable, and a campaign
// variant that replays the Section-IV measurement loop through a fault
// plan.

package routine

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/power"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// DefaultUploadBufferCap is the buffer depth used when a config leaves
// it zero: roughly 2.5 hours of 10-minute routines fit before data
// starts falling off the back.
const DefaultUploadBufferCap = 16

// Metric names emitted by an instrumented faulty campaign, alongside
// the link and retry metrics the netsim probes register.
const (
	// MetricWakeupAttempts distributes total send attempts per wake-up
	// (fresh upload plus backlog drain).
	MetricWakeupAttempts = "routine_wakeup_attempts"
	// MetricFallbackJ distributes the edge energy of each local
	// queen-detection inference run — the per-detection energy paid when
	// the cloud is unreachable.
	MetricFallbackJ = "routine_fallback_j"
)

// UploadBuffer is a bounded FIFO of upload payloads that could not be
// delivered. When full, the oldest payload is evicted to make room —
// on a hive monitor the newest observations are the valuable ones —
// and counted as dropped.
type UploadBuffer struct {
	capacity int
	q        []netsim.Bytes
	dropped  int
}

// NewUploadBuffer creates a buffer holding at most capacity payloads
// (capacity <= 0 selects DefaultUploadBufferCap).
func NewUploadBuffer(capacity int) *UploadBuffer {
	if capacity <= 0 {
		capacity = DefaultUploadBufferCap
	}
	return &UploadBuffer{capacity: capacity}
}

// Push enqueues p, evicting the oldest payload when the buffer is
// full. It reports whether an eviction happened.
func (b *UploadBuffer) Push(p netsim.Bytes) bool {
	evicted := false
	if len(b.q) >= b.capacity {
		copy(b.q, b.q[1:])
		b.q = b.q[:len(b.q)-1]
		b.dropped++
		evicted = true
	}
	b.q = append(b.q, p)
	return evicted
}

// PushFront returns p to the head of the queue — used when a drain
// attempt fails and the payload must keep its place in line. If the
// buffer is full the newest payload is evicted instead of the
// returning one.
func (b *UploadBuffer) PushFront(p netsim.Bytes) {
	if len(b.q) >= b.capacity {
		b.q = b.q[:len(b.q)-1]
		b.dropped++
	}
	b.q = append(b.q, 0)
	copy(b.q[1:], b.q)
	b.q[0] = p
}

// Pop dequeues the oldest payload.
func (b *UploadBuffer) Pop() (netsim.Bytes, bool) {
	if len(b.q) == 0 {
		return 0, false
	}
	p := b.q[0]
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	return p, true
}

// Len returns the number of buffered payloads.
func (b *UploadBuffer) Len() int { return len(b.q) }

// Dropped returns how many payloads were evicted over the buffer's
// lifetime.
func (b *UploadBuffer) Dropped() int { return b.dropped }

// FaultyCampaignConfig parameterizes a degraded measurement campaign.
type FaultyCampaignConfig struct {
	// Link is the uplink the campaign sends over.
	Link netsim.Config
	// Plan is the fault plan; its seed drives every fault decision and
	// its retry policy (or the default) governs the backoff.
	Plan faults.Plan
	// Start anchors the plan's windows and keys the per-attempt draws.
	Start time.Time
	// Period separates consecutive wake-ups.
	Period time.Duration
	// Routines is the campaign length (the paper ran 319).
	Routines int
	// BufferCap bounds the buffer-and-drain queue (0 = default).
	BufferCap int
	// Metrics, when non-nil, receives the link and retry counters.
	Metrics *obs.Registry
	// Ledger, when non-nil, receives the radio's transfer and retry
	// energy as attribution-only entries under Hive.
	Ledger *ledger.Ledger
	// Hive labels the ledger entries.
	Hive string
}

// FaultyCampaignStats summarizes a degraded campaign. Payloads are
// conserved: Delivered + Flushed + Buffered + Dropped == Routines.
type FaultyCampaignStats struct {
	Routines int
	// Delivered counts payloads uploaded on their own wake-up.
	Delivered int
	// Flushed counts buffered payloads drained on a later wake-up.
	Flushed int
	// Buffered counts payloads still queued when the campaign ended.
	Buffered int
	// Dropped counts payloads evicted from the full buffer (data lost).
	Dropped int
	// Fallbacks counts wake-ups that ran the queen-detection model
	// locally because the upload never went through.
	Fallbacks int
	// Attempts is the total send attempts across fresh and drain
	// uploads; Failures is how many of them failed.
	Attempts int
	Failures int
	// RetryEnergy is the radio energy burned by failed attempts.
	RetryEnergy units.Joules
	// FallbackEnergy is the edge energy spent on local inference runs.
	FallbackEnergy units.Joules
}

// Conserved reports whether every routine's payload is accounted for.
func (s FaultyCampaignStats) Conserved() bool {
	return s.Delivered+s.Flushed+s.Buffered+s.Dropped == s.Routines
}

// SimulateFaultyCampaign replays a measurement campaign through a
// fault plan: each wake-up tries to upload its routine payload with
// retry/backoff; a failed upload is buffered and the edge falls back
// to local CNN inference so the hive is never blind; the next
// successful wake-up drains the buffer in FIFO order until a send
// fails again. Everything is deterministic in (cfg.Link.Seed,
// cfg.Plan.Seed, cfg.Start): the fault schedule is a pure function of
// virtual time, so two runs of the same config agree field for field.
func SimulateFaultyCampaign(pi power.Pi3B, cfg FaultyCampaignConfig) (FaultyCampaignStats, error) {
	if cfg.Routines <= 0 {
		return FaultyCampaignStats{}, errors.New("routine: campaign needs Routines > 0")
	}
	if cfg.Period <= 0 {
		return FaultyCampaignStats{}, errors.New("routine: campaign needs Period > 0")
	}
	link, err := netsim.NewLink(cfg.Link)
	if err != nil {
		return FaultyCampaignStats{}, err
	}
	inj, err := faults.NewInjector(cfg.Plan, cfg.Start)
	if err != nil {
		return FaultyCampaignStats{}, err
	}
	link.Instrument(cfg.Metrics, nil, nil)
	if err := link.AttachFaults(inj, cfg.Plan.RetryOrDefault(), cfg.Metrics); err != nil {
		return FaultyCampaignStats{}, err
	}
	if cfg.Ledger != nil {
		// SendAt stamps ledger entries with its explicit virtual time;
		// the clock only needs to be non-nil to arm the probe.
		epoch := cfg.Start
		link.AttachLedger(cfg.Ledger, cfg.Hive, func() time.Time { return epoch })
	}

	buf := NewUploadBuffer(cfg.BufferCap)
	fallback := pi.InferCNN()
	hAttempts := cfg.Metrics.Histogram(MetricWakeupAttempts)
	hFallbackJ := cfg.Metrics.Histogram(MetricFallbackJ)
	st := FaultyCampaignStats{Routines: cfg.Routines}
	var retryE, fallbackE stats.Kahan
	for i := 0; i < cfg.Routines; i++ {
		at := cfg.Start.Add(time.Duration(i) * cfg.Period)
		out := link.SendAt(at, netsim.RoutinePayload())
		st.Attempts += out.Attempts
		retryE.Add(float64(out.RetryEnergy))
		if !out.Delivered {
			st.Failures += out.Attempts
			buf.Push(netsim.RoutinePayload())
			st.Fallbacks++
			fallbackE.Add(float64(fallback.Energy))
			hAttempts.Observe(float64(out.Attempts))
			hFallbackJ.Observe(float64(fallback.Energy))
			continue
		}
		st.Failures += out.Attempts - 1
		st.Delivered++
		wakeAttempts := out.Attempts
		// Recovery: drain the backlog behind the fresh upload until a
		// send fails again or the queue empties.
		t := at.Add(out.TotalDuration)
		for buf.Len() > 0 {
			p, _ := buf.Pop()
			drain := link.SendAt(t, p)
			st.Attempts += drain.Attempts
			wakeAttempts += drain.Attempts
			retryE.Add(float64(drain.RetryEnergy))
			if !drain.Delivered {
				st.Failures += drain.Attempts
				buf.PushFront(p)
				break
			}
			st.Failures += drain.Attempts - 1
			st.Flushed++
			t = t.Add(drain.TotalDuration)
		}
		hAttempts.Observe(float64(wakeAttempts))
	}
	st.Buffered = buf.Len()
	st.Dropped = buf.Dropped()
	st.RetryEnergy = units.Joules(retryE.Sum())
	st.FallbackEnergy = units.Joules(fallbackE.Sum())
	if !st.Conserved() {
		return st, fmt.Errorf("routine: campaign payloads not conserved: %+v", st)
	}
	return st, nil
}
