// Package netsim models the smart beehive's Wi-Fi uplink.
//
// Section IV of the paper attributes the routine-length spread (sigma =
// 3.5 s over 319 routines) to "the variance of the duration of the data
// transfer correlated to the unstable network throughput", and Section V
// observes that "the network components have a larger energy cost than
// the sensors". The model therefore provides a lognormal effective
// throughput around a nominal rate, per-payload transfer durations, and
// the transmit energy implied by the edge device's radio power.
package netsim

import (
	"errors"
	"time"

	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/rng"
	"beesim/internal/units"
)

// Bytes is a payload size.
type Bytes int64

// Common payload sizes of the deployed routine, from Section III: three
// 10-second audio captures plus five 800x600 images plus scalar sensor
// readings per wake-up.
const (
	// AudioSample10s is one 10 s mono 16-bit capture at 22 050 Hz.
	AudioSample10s Bytes = 441_000
	// Image800x600 is one JPEG-compressed 800x600 camera frame (~0.1 bpp
	// of the raw 24-bit size).
	Image800x600 Bytes = 180_000
	// ScalarBatch is one batch of temperature/humidity/current readings.
	ScalarBatch Bytes = 2_000
)

// RoutinePayload is the full upload of one data-collection routine:
// 3 audio samples, 5 images and the scalar batch.
func RoutinePayload() Bytes {
	return 3*AudioSample10s + 5*Image800x600 + ScalarBatch
}

// Config describes a link.
type Config struct {
	// NominalThroughput is the median effective uplink rate in bytes/s.
	// A busy 2.4 GHz roof deployment delivers well under the PHY rate.
	NominalThroughput float64
	// Sigma is the lognormal shape parameter of the throughput
	// distribution; 0 gives a deterministic link.
	Sigma float64
	// TxPower is the extra electrical power the edge draws while
	// transmitting (radio + CPU busy-wait).
	TxPower units.Watts
	// SetupTime is the per-transfer association/TLS overhead.
	SetupTime time.Duration
	// Seed drives the stochastic throughput.
	Seed uint64
}

// DefaultConfig is calibrated so one full routine payload (≈2.2 MB)
// transfers in about 15 s — the "Send audio + images" duration implied by
// the paper's tables — with enough spread to reproduce the 3.5 s routine
// sigma.
func DefaultConfig() Config {
	return Config{
		NominalThroughput: 150_000, // ~1.2 Mbit/s effective
		Sigma:             0.22,
		TxPower:           0.45, // above-baseline radio draw
		SetupTime:         500 * time.Millisecond,
		Seed:              1,
	}
}

// Link is a stateful uplink model.
type Link struct {
	cfg Config
	r   *rng.Source

	// Observability probes; all nil-safe no-ops until Instrument.
	mTransfers *obs.Counter
	mBytes     *obs.Counter
	mTxEnergy  *obs.Counter
	hSeconds   *obs.Histogram
	tr         *obs.Tracer
	clock      func() time.Time

	// Energy-ledger probe; nil-safe no-op until AttachLedger.
	lg     *ledger.Ledger
	lgHive string

	// Fault-injection state; nil inj keeps Send/SendAt on the exact
	// fault-free path (see faults.go).
	inj          *faults.Injector
	retry        faults.RetryPolicy
	mAttempts    *obs.Counter
	mFailures    *obs.Counter
	mRetries     *obs.Counter
	mDrops       *obs.Counter
	mRetryEnergy *obs.Counter
	mEpisodes    *obs.Counter
	hUploadSecs  *obs.Histogram
	hAttempts    *obs.Histogram
}

// Metric names emitted by an instrumented link.
const (
	MetricTransfers       = "netsim_transfers_total"
	MetricBytes           = "netsim_bytes_total"
	MetricTxEnergyJ       = "netsim_tx_energy_j_total"
	MetricTransferSeconds = "netsim_transfer_seconds"
)

// Instrument attaches metrics and trace probes. clock supplies the
// virtual start time of each transfer (pass the simulation's Now);
// trace spans are skipped when either tr or clock is nil. Each Send
// then counts the transfer, its payload bytes and radio energy,
// observes its duration, and appears as a span on the network track.
func (l *Link) Instrument(m *obs.Registry, tr *obs.Tracer, clock func() time.Time) {
	l.mTransfers = m.Counter(MetricTransfers)
	l.mBytes = m.Counter(MetricBytes)
	l.mTxEnergy = m.Counter(MetricTxEnergyJ)
	l.hSeconds = m.Histogram(MetricTransferSeconds)
	if clock != nil {
		l.tr = tr
		l.clock = clock
	}
}

// AttachLedger wires the energy ledger: each Send appends the radio's
// extra transmit energy as an attribution-only consume entry. The
// entries carry no store because the task-level power envelopes already
// include the radio draw — binding them to the battery would count the
// same joules twice and fail the conservation audit. clock supplies the
// virtual start time of each transfer; entries are skipped when lg or
// clock is nil.
func (l *Link) AttachLedger(lg *ledger.Ledger, hive string, clock func() time.Time) {
	if clock == nil {
		return
	}
	l.lg = lg
	l.lgHive = hive
	l.clock = clock
}

// NewLink creates a link from the configuration.
func NewLink(cfg Config) (*Link, error) {
	if cfg.NominalThroughput <= 0 {
		return nil, errors.New("netsim: non-positive nominal throughput")
	}
	if cfg.Sigma < 0 {
		return nil, errors.New("netsim: negative sigma")
	}
	if cfg.SetupTime < 0 {
		return nil, errors.New("netsim: negative setup time")
	}
	return &Link{cfg: cfg, r: rng.New(cfg.Seed)}, nil
}

// Transfer is the outcome of one upload.
type Transfer struct {
	Payload     Bytes
	Duration    time.Duration
	Throughput  float64      // effective bytes/s achieved
	ExtraEnergy units.Joules // radio energy above the device baseline
}

// Send simulates uploading payload over the link, drawing a fresh
// throughput sample. Zero payloads take only the setup time.
func (l *Link) Send(payload Bytes) Transfer {
	t := l.sample(payload)
	l.mTransfers.Inc()
	l.mBytes.Add(float64(payload))
	l.mTxEnergy.Add(float64(t.ExtraEnergy))
	l.hSeconds.Observe(t.Duration.Seconds())
	if l.tr != nil {
		l.traceTransfer(l.clock(), t)
	}
	if l.lg != nil {
		l.ledgerTransfer(l.clock(), t)
	}
	return t
}

// sample draws one throughput realization and prices the transfer.
func (l *Link) sample(payload Bytes) Transfer {
	if payload < 0 {
		payload = 0
	}
	// Lognormal with median at the nominal rate.
	tput := l.cfg.NominalThroughput
	if l.cfg.Sigma > 0 {
		tput = l.cfg.NominalThroughput * l.r.LogNormal(0, l.cfg.Sigma)
	}
	d := l.cfg.SetupTime +
		time.Duration(float64(payload)/tput*float64(time.Second))
	return Transfer{
		Payload:     payload,
		Duration:    d,
		Throughput:  tput,
		ExtraEnergy: l.cfg.TxPower.Energy(d),
	}
}

// traceTransfer emits the transfer span at its virtual start time.
func (l *Link) traceTransfer(at time.Time, t Transfer) {
	l.tr.Span("uplink transfer", "net", obs.TidNetwork, at, t.Duration, map[string]any{
		"bytes":        int64(t.Payload),
		"throughput_b": t.Throughput,
		"tx_joules":    float64(t.ExtraEnergy),
	})
}

// ledgerTransfer appends the transfer's radio energy. Zero-energy
// transfers (a zero-power radio, or a zero-duration transfer) are
// skipped: they carry no flow, and under retry the same virtual instant
// can see several of them, which would otherwise pile up duplicate
// zero-joule entries at one timestamp.
func (l *Link) ledgerTransfer(at time.Time, t Transfer) {
	if t.ExtraEnergy <= 0 {
		return
	}
	l.lg.Append(ledger.Entry{
		T: at, Hive: l.lgHive, Device: "edge", Component: "radio",
		Task: "uplink transfer", Dir: ledger.Consume,
		Joules: float64(t.ExtraEnergy), Seconds: t.Duration.Seconds(),
	})
}
