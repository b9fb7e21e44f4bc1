// Fault-aware sending: retry/backoff around the stochastic link.
//
// SendAt is the fault-tolerant sibling of Send. With no injector
// attached it delegates to Send unchanged — same rng draw sequence,
// same probes, zero extra allocations — so arming faults is strictly
// opt-in and the fault-free outputs stay byte-identical. With an
// injector attached, each upload spends a budget of attempts governed
// by the retry policy: a failed attempt burns setup-plus-timeout of
// radio energy (accounted in the ledger as "uplink retry"), backoff
// waits between attempts use the injector's deterministic jitter, and
// the whole episode is summarized in an Outcome.

package netsim

import (
	"time"

	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// Metric names emitted by a fault-armed link (registered by
// AttachFaults, so fault-free runs carry none of them).
const (
	MetricSendAttempts = "netsim_send_attempts_total"
	MetricSendFailures = "netsim_send_failures_total"
	MetricSendRetries  = "netsim_send_retries_total"
	MetricSendDrops    = "netsim_send_drops_total"
	MetricRetryEnergyJ = "netsim_retry_energy_j_total"
	// MetricUploadEpisodes counts whole upload episodes (one per SendAt
	// call); together with MetricSendDrops it yields the delivery ratio
	// an availability SLO checks.
	MetricUploadEpisodes = "netsim_upload_episodes_total"
	// MetricUploadSeconds distributes the virtual-time latency of
	// delivered episodes — first attempt through final payload byte,
	// including backoff waits — the p99 a latency SLO bounds.
	MetricUploadSeconds = "netsim_upload_seconds"
	// MetricAttemptsPerUpload distributes attempts consumed per episode
	// (delivered or not).
	MetricAttemptsPerUpload = "netsim_attempts_per_upload"
)

// Outcome is the result of one fault-aware upload: the delivered
// transfer (zero when the attempt budget ran out), how many attempts it
// took, the radio energy burned by the failed ones, and the total
// radio-busy time including backoff waits.
type Outcome struct {
	Transfer
	// Delivered reports whether any attempt succeeded.
	Delivered bool
	// Attempts is the number of attempts consumed (>= 1).
	Attempts int
	// RetryEnergy is the radio energy of the failed attempts; the
	// delivered transfer's own energy is in Transfer.ExtraEnergy.
	RetryEnergy units.Joules
	// TotalDuration spans first attempt to final verdict: failed
	// attempts, backoff waits, and the delivered transfer.
	TotalDuration time.Duration
}

// AttachFaults arms the link with a fault injector and retry policy and
// registers the retry counters on m (which may be nil for uncounted
// runs). A nil injector is a no-op: the link stays on the exact
// fault-free path. Call after Instrument so the fault counters land in
// the same registry as the transfer metrics.
func (l *Link) AttachFaults(inj *faults.Injector, pol faults.RetryPolicy, m *obs.Registry) error {
	if inj == nil {
		return nil
	}
	if err := pol.Validate(); err != nil {
		return err
	}
	l.inj = inj
	l.retry = pol
	l.mAttempts = m.Counter(MetricSendAttempts)
	l.mFailures = m.Counter(MetricSendFailures)
	l.mRetries = m.Counter(MetricSendRetries)
	l.mDrops = m.Counter(MetricSendDrops)
	l.mRetryEnergy = m.Counter(MetricRetryEnergyJ)
	l.mEpisodes = m.Counter(MetricUploadEpisodes)
	l.hUploadSecs = m.Histogram(MetricUploadSeconds)
	l.hAttempts = m.Histogram(MetricAttemptsPerUpload)
	return nil
}

// SendAt uploads payload starting at virtual instant now, retrying
// failed attempts under the armed policy. Without an armed injector it
// is exactly Send. SendAt is the untraced form of SendSpan: same rng
// draws, same metrics, same ledger entries, no span identity.
func (l *Link) SendAt(now time.Time, payload Bytes) Outcome {
	return l.SendSpan(now, payload, nil)
}

// SendSpan is SendAt carrying a span context through the radio episode.
// When sc is non-nil, every attempt becomes a child span of sc on the
// network track — delivered transfers as "uplink transfer" (tagged with
// the attempt number), failed attempts as "uplink retry" spans covering
// setup plus timeout, backoff waits as "uplink backoff" spans — and the
// upload latency/attempt histograms record exemplars pointing back at
// sc's trace ID. A nil sc is exactly SendAt: the rng draw sequence,
// metric increments, trace events and ledger entries are byte-identical
// to the untraced path, so arming tracing never perturbs a run.
func (l *Link) SendSpan(now time.Time, payload Bytes, sc *obs.SpanContext) Outcome {
	if l.inj == nil {
		if sc == nil {
			t := l.Send(payload)
			return Outcome{Transfer: t, Delivered: true, Attempts: 1, TotalDuration: t.Duration}
		}
		// Fault-free traced path: Send's accounting with the span's own
		// start instant and a tagged transfer span.
		t := l.sample(payload)
		l.mTransfers.Inc()
		l.mBytes.Add(float64(t.Payload))
		l.mTxEnergy.Add(float64(t.ExtraEnergy))
		l.hSeconds.ObserveExemplar(t.Duration.Seconds(), sc)
		if l.tr != nil {
			l.traceTransferCtx(sc.Child("attempt", 1), now, t, 1)
		}
		if l.lg != nil {
			l.ledgerTransfer(now, t)
		}
		return Outcome{Transfer: t, Delivered: true, Attempts: 1, TotalDuration: t.Duration}
	}
	var elapsed time.Duration
	var retryE stats.Kahan
	l.mEpisodes.Inc()
	budget := l.retry.MaxAttempts
	for a := 1; a <= budget; a++ {
		at := now.Add(elapsed)
		l.mAttempts.Inc()
		attemptSC := sc.Child("attempt", uint64(a)) // nil when sc is nil
		if l.inj.LinkUp(at) && !l.inj.DropUpload(at, a) {
			t := l.sample(payload)
			l.mTransfers.Inc()
			l.mBytes.Add(float64(t.Payload))
			l.mTxEnergy.Add(float64(t.ExtraEnergy))
			l.hSeconds.ObserveExemplar(t.Duration.Seconds(), sc)
			if l.tr != nil {
				if attemptSC != nil {
					l.traceTransferCtx(attemptSC, at, t, a)
				} else {
					l.traceTransfer(at, t)
				}
			}
			if l.lg != nil {
				l.ledgerTransfer(at, t)
			}
			l.hAttempts.ObserveExemplar(float64(a), sc)
			l.hUploadSecs.ObserveExemplar((elapsed + t.Duration).Seconds(), sc)
			return Outcome{
				Transfer:      t,
				Delivered:     true,
				Attempts:      a,
				RetryEnergy:   units.Joules(retryE.Sum()),
				TotalDuration: elapsed + t.Duration,
			}
		}
		elapsed += l.failAttempt(at, &retryE, attemptSC)
		if a < budget {
			l.mRetries.Inc()
			wait := l.retry.Backoff(a, l.inj.JitterU(at, a))
			if attemptSC != nil && wait > 0 {
				l.tr.SpanCtx(sc.Child("backoff", uint64(a)), "uplink backoff", "net",
					obs.TidNetwork, now.Add(elapsed), wait, map[string]any{"attempt": a})
			}
			elapsed += wait
		}
	}
	l.mDrops.Inc()
	l.hAttempts.ObserveExemplar(float64(budget), sc)
	if sc != nil {
		l.tr.InstantCtx(sc, "upload dropped", "net", obs.TidNetwork, now.Add(elapsed), map[string]any{
			"attempts": budget,
		})
	}
	return Outcome{
		Attempts:      budget,
		RetryEnergy:   units.Joules(retryE.Sum()),
		TotalDuration: elapsed,
	}
}

// traceTransferCtx is traceTransfer with span identity and the attempt
// number tagged onto the transfer span.
func (l *Link) traceTransferCtx(sc *obs.SpanContext, at time.Time, t Transfer, attempt int) {
	l.tr.SpanCtx(sc, "uplink transfer", "net", obs.TidNetwork, at, t.Duration, map[string]any{
		"bytes":        int64(t.Payload),
		"throughput_b": t.Throughput,
		"tx_joules":    float64(t.ExtraEnergy),
		"attempt":      attempt,
	})
}

// failAttempt accounts one failed attempt: the radio stays up for the
// link setup plus the attempt timeout before declaring failure, burning
// transmit power the whole time. The energy lands in the ledger as an
// attribution-only "uplink retry" entry (skipped when it rounds to
// zero, mirroring the zero-energy transfer rule) and in the retry
// counters; the duration is returned for the caller's virtual clock.
// With a span context the failed attempt becomes a tagged span covering
// the radio-busy window; without one it stays the classic instant
// marker, keeping untraced output byte-identical.
func (l *Link) failAttempt(at time.Time, retryE *stats.Kahan, sc *obs.SpanContext) time.Duration {
	d := l.cfg.SetupTime + l.retry.AttemptTimeout
	e := l.cfg.TxPower.Energy(d)
	retryE.Add(float64(e))
	l.mFailures.Inc()
	l.mTxEnergy.Add(float64(e))
	l.mRetryEnergy.Add(float64(e))
	if l.tr != nil {
		if sc != nil {
			l.tr.SpanCtx(sc, "uplink retry", "net", obs.TidNetwork, at, d, map[string]any{
				"tx_joules": float64(e),
				"timeout_s": d.Seconds(),
			})
		} else {
			l.tr.Instant("uplink retry", "net", obs.TidNetwork, at, map[string]any{
				"tx_joules": float64(e),
				"timeout_s": d.Seconds(),
			})
		}
	}
	if l.lg != nil && e > 0 {
		l.lg.Append(ledger.Entry{
			T: at, Hive: l.lgHive, Device: "edge", Component: "radio",
			Task: "uplink retry", Dir: ledger.Consume,
			Joules: float64(e), Seconds: d.Seconds(),
		})
	}
	return d
}

// Faulted reports whether a fault injector is armed on the link.
func (l *Link) Faulted() bool { return l.inj != nil }

// RetryPolicy returns the armed retry policy (zero value when no
// injector is armed).
func (l *Link) RetryPolicy() faults.RetryPolicy { return l.retry }
