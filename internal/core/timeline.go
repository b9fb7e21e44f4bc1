package core

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/units"
)

// This file builds explicit event timelines from allocations — the
// discrete-event view of the analytic model. The paper's server serves
// its time slots back to back within each wake-up cycle; materializing
// that schedule lets tests cross-validate the closed-form energy
// arithmetic against an integration over the actual power profile, and
// lets callers inspect when each hive's slot fires.

// Phase labels one span of a server's cycle.
type Phase int

// Timeline phases.
const (
	// PhaseIdle: the server draws only its baseline.
	PhaseIdle Phase = iota
	// PhaseReceive: a slot's clients are uploading simultaneously.
	PhaseReceive
	// PhaseExecute: the batched model execution for a slot.
	PhaseExecute
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseReceive:
		return "receive"
	case PhaseExecute:
		return "execute"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Span is one contiguous phase of a server's cycle.
type Span struct {
	Phase Phase
	// Slot is the slot index for receive/execute spans (-1 for idle).
	Slot int
	// Clients is the number of uploading clients (receive spans).
	Clients int
	Start   time.Duration
	End     time.Duration
	// Power is the server's draw during the span.
	Power units.Watts
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Energy returns the span's energy.
func (s Span) Energy() units.Joules { return s.Power.Energy(s.Duration()) }

// ServerTimeline materializes one allocated server's cycle as an ordered
// sequence of spans covering exactly [0, Period]. Slots are served back
// to back from the cycle start, empty slots are skipped (the server
// stays idle), and the saturation penalty (loss A) is applied to the
// busy spans' power so the integral matches the analytic slot energy.
func (a Allocation) ServerTimeline(srv Server) ([]Span, error) {
	spec, svc, l := a.Spec, a.Service, a.Losses
	var spans []Span
	cursor := time.Duration(0)
	slotCount := len(srv.Slots)
	if slotCount == 0 {
		return nil, errors.New("core: server has no slots")
	}
	idleShare := spec.IdlePower.Energy(spec.Period) / units.Joules(float64(slotCount))

	appendIdle := func(until time.Duration) {
		if until > cursor {
			spans = append(spans, Span{
				Phase: PhaseIdle, Slot: -1,
				Start: cursor, End: until,
				Power: spec.IdlePower,
			})
			cursor = until
		}
	}

	for i, n := range srv.Slots {
		if n == 0 {
			continue
		}
		penalty := 1.0
		if l.SlotSaturation {
			threshold := spec.MaxParallel - l.SaturationMargin
			if over := n - threshold; over > 0 {
				if l.SaturationLinear {
					penalty = 1 + l.SaturationFactor*float64(over)
				} else {
					p := 1.0
					for k := 0; k < over; k++ {
						p *= 1 + l.SaturationFactor
					}
					penalty = p
				}
			}
		}
		transferPenalty := time.Duration(n) * l.TransferPenalty
		if l.TransferPenaltyPerSlot {
			transferPenalty = l.TransferPenalty
		}
		recvDur := svc.ReceiveDuration + transferPenalty
		recvEnd := cursor + recvDur
		execEnd := recvEnd + svc.ExecDuration
		if execEnd > spec.Period {
			return nil, fmt.Errorf("core: slot %d ends at %v, beyond the %v period",
				i, execEnd, spec.Period)
		}
		recvPower := spec.IdlePower + units.Watts(penalty)*(svc.ReceivePower-spec.IdlePower)
		execPower := spec.IdlePower + units.Watts(penalty)*(svc.ExecPower-spec.IdlePower)
		if l.SlotSaturation && !l.SaturationExtraOnly && penalty > 1 {
			// Whole-slot penalties also inflate the slot's idle share;
			// spread that surcharge over the busy spans so the timeline
			// integral still matches the analytic slot energy.
			surcharge := units.Joules(float64(idleShare) * (penalty - 1))
			busy := recvDur + svc.ExecDuration
			extra := surcharge.Power(busy)
			recvPower += extra
			execPower += extra
		}
		spans = append(spans, Span{
			Phase: PhaseReceive, Slot: i, Clients: n,
			Start: cursor, End: recvEnd,
			Power: recvPower,
		})
		spans = append(spans, Span{
			Phase: PhaseExecute, Slot: i, Clients: n,
			Start: recvEnd, End: execEnd,
			Power: execPower,
		})
		cursor = execEnd
	}
	appendIdle(spec.Period)
	return spans, nil
}
