package ledger

// Conservation auditing: per hive and per store, the flows must
// balance the observed change of stored energy,
//
//	harvested − consumed − conversion losses = ΔSoC·capacity
//
// within a tolerance. A violation is a structured report — never a
// panic — naming the hive, the residual joules, and the most likely
// suspect component, so a double-counted probe or an unreported loss
// is attributable instead of surfacing as a wrong figure.

import (
	"fmt"
	"math"
	"sort"
)

// Tolerance bounds the acceptable conservation residual: a store
// passes when |residual| <= AbsJ + Rel * scale, where scale is the
// gross energy moved through the store (harvest + consume + loss +
// |delta|). The relative term absorbs float64 accumulation drift on
// megajoule-scale runs; the absolute term keeps tiny runs honest.
type Tolerance struct {
	AbsJ float64
	Rel  float64
}

// DefaultTolerance is the documented audit bar: one millijoule plus
// one part per billion of gross flow.
func DefaultTolerance() Tolerance { return Tolerance{AbsJ: 1e-3, Rel: 1e-9} }

// Violation is one failed conservation check.
type Violation struct {
	Hive  string
	Store string
	// The balance terms, in joules.
	HarvestJ float64
	ConsumeJ float64
	LossJ    float64
	DeltaJ   float64
	// ResidualJ = HarvestJ − ConsumeJ − LossJ − DeltaJ. Negative
	// residuals mean more energy left the books than the store
	// delivered (e.g. a double-counted consumer); positive residuals
	// mean harvested energy is unaccounted for (e.g. an unreported
	// conversion loss).
	ResidualJ float64
	// AllowedJ is the tolerance the residual exceeded.
	AllowedJ float64
	// Suspect is the best-effort attribution: the largest consumer
	// component when the books over-consume, the store itself when
	// energy went missing inside it.
	Suspect string
	// PerComponent maps each consuming component to its total joules,
	// for manual investigation.
	PerComponent map[string]float64
}

// String formats the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf(
		"hive %q store %q: harvest %.3f − consume %.3f − loss %.3f − Δ %.3f = residual %+.6f J (allowed ±%.6f, suspect %q)",
		v.Hive, v.Store, v.HarvestJ, v.ConsumeJ, v.LossJ, v.DeltaJ,
		v.ResidualJ, v.AllowedJ, v.Suspect)
}

// AuditReport summarizes one conservation audit.
type AuditReport struct {
	// StoresChecked counts (hive, store) pairs with a registered delta.
	StoresChecked int
	// EntriesAudited counts store-bound entries folded into balances.
	EntriesAudited int
	// AttributionOnly counts entries with no store (overlays the audit
	// ignores by design).
	AttributionOnly int
	// Violations lists every failed balance, sorted by (hive, store).
	Violations []Violation
}

// OK reports whether the audit found no violations.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// String formats a one-line summary.
func (r AuditReport) String() string {
	if r.OK() {
		return fmt.Sprintf("conservation audit: ok (%d store(s), %d entries balanced, %d attribution-only)",
			r.StoresChecked, r.EntriesAudited, r.AttributionOnly)
	}
	return fmt.Sprintf("conservation audit: %d violation(s) over %d store(s)",
		len(r.Violations), r.StoresChecked)
}

type balance struct {
	harvest, consume, loss float64
	entries                int
	perComponent           map[string]float64
}

// Audit balances the ledger's store-bound entries against its
// registered store deltas. Entries naming a (hive, store) pair with no
// registered delta are balanced against an implicit zero delta — an
// unregistered store is more often a missing SetStore call than a
// perfectly cyclic battery, and the violation points there. A nil
// ledger audits clean.
func Audit(l *Ledger, tol Tolerance) AuditReport {
	var rep AuditReport
	if l == nil {
		return rep
	}
	l.mu.Lock()
	runs := l.runsLocked()
	deltas := l.storesLocked()
	l.mu.Unlock()

	type storeKey struct{ hive, store string }
	balances := map[storeKey]*balance{}
	for _, run := range runs {
		for _, e := range run {
			if e.Store == "" {
				rep.AttributionOnly++
				continue
			}
			k := storeKey{e.Hive, e.Store}
			b := balances[k]
			if b == nil {
				b = &balance{perComponent: map[string]float64{}}
				balances[k] = b
			}
			b.entries++
			rep.EntriesAudited++
			switch e.Dir {
			case Harvest:
				b.harvest += e.Joules
			case Consume:
				b.consume += e.Joules
				b.perComponent[componentName(e)] += e.Joules
			case StoreLoss:
				b.loss += e.Joules
			}
		}
	}

	// Every registered store is checked even with zero entries (a
	// non-zero delta with no flows is itself a violation); every
	// entry-bearing store is checked even without a delta.
	seen := map[storeKey]bool{}
	var checks []StoreDelta
	for _, d := range deltas {
		checks = append(checks, d)
		seen[storeKey{d.Hive, d.Store}] = true
	}
	for k := range balances {
		if !seen[k] {
			checks = append(checks, StoreDelta{Hive: k.hive, Store: k.store})
		}
	}
	sort.Slice(checks, func(i, j int) bool {
		if checks[i].Hive != checks[j].Hive {
			return checks[i].Hive < checks[j].Hive
		}
		return checks[i].Store < checks[j].Store
	})

	for _, d := range checks {
		rep.StoresChecked++
		b := balances[storeKey{d.Hive, d.Store}]
		if b == nil {
			b = &balance{perComponent: map[string]float64{}}
		}
		delta := d.DeltaJ()
		residual := b.harvest - b.consume - b.loss - delta
		scale := b.harvest + b.consume + b.loss + math.Abs(delta)
		allowed := tol.AbsJ + tol.Rel*scale
		if math.Abs(residual) <= allowed && !anyNaN(residual, allowed) {
			continue
		}
		rep.Violations = append(rep.Violations, Violation{
			Hive: d.Hive, Store: d.Store,
			HarvestJ: b.harvest, ConsumeJ: b.consume, LossJ: b.loss,
			DeltaJ: delta, ResidualJ: residual, AllowedJ: allowed,
			Suspect:      suspect(d.Store, residual, b.perComponent),
			PerComponent: b.perComponent,
		})
	}
	return rep
}

// AuditTrip runs Audit and fires the flight recorder when the report
// has violations, so an armed ring dumps its retained window for
// post-mortem the same way a battery cutoff does. The trip error (a
// failed dump write) is returned alongside the report.
func AuditTrip(l *Ledger, tol Tolerance) (AuditReport, error) {
	rep := Audit(l, tol)
	if rep.OK() {
		return rep, nil
	}
	return rep, l.Trip(rep.String())
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func componentName(e Entry) string {
	if e.Component != "" {
		return e.Component
	}
	return e.Device
}

// suspect attributes a residual: over-consumption (negative residual)
// points at the heaviest consumer component — where a double-counted
// probe lands; missing energy (positive residual) points at the store
// itself — where an unreported conversion loss lands.
func suspect(store string, residual float64, perComponent map[string]float64) string {
	if residual >= 0 || len(perComponent) == 0 {
		return store
	}
	var top string
	var topJ float64
	names := make([]string, 0, len(perComponent))
	for name := range perComponent {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-break
	for _, name := range names {
		if j := perComponent[name]; j > topJ {
			top, topJ = name, j
		}
	}
	return top
}
