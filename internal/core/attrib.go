package core

import (
	"time"

	"gcassert/internal/collector"
)

// Cost attribution: per-assertion-kind accounting of the work and time the
// engine spends inside a collection. The paper's evaluation only reports
// aggregate overhead ("infrastructure cost is concentrated in GC time");
// attribution breaks a pause down by assertion kind so an operator can see
// *which* checks a cycle paid for.
//
// The discipline mirrors provenance (PR 4): disabled is the default and
// costs exactly one nil-check per rare block — nothing is added to the
// per-edge fast path, which stays untimed even when attribution is on.
// Work counts are exact (deltas of the engine's existing check counters);
// times cover only the flagged slow paths (dead/unshared/ownedby handling,
// the ownership pre-phase, and the PostSweep instance comparison), so "checks"
// are precise and "ns" is an honest lower bound that never perturbs the
// loop it measures.

// costState is the per-collection attribution scratch, reset in PreMark.
type costState struct {
	// ns accumulates per-kind slow-path time for the current cycle.
	ns [NumKinds]int64
}

// KindActivity is one assertion kind's work in one collection: checks in the
// kind's natural unit (see CheckDeltas) and violations reported.
type KindActivity struct {
	Checks     uint64
	Violations uint64
}

// LastCycle returns each kind's activity since the most recent PreMark: the
// collection in progress or, after its sweep and until the next collection,
// the one that just finished (dead verification accrues in the sweep). Cost
// attribution, the telemetry sink and the flight recorder all read this one
// window.
func (e *Engine) LastCycle() [NumKinds]KindActivity {
	now := e.Stats()
	checks := CheckDeltas(e.cycleAt, now)
	var out [NumKinds]KindActivity
	for k := range out {
		out[k] = KindActivity{Checks: checks[k], Violations: now.ViolationsByKind[k] - e.cycleAt.ViolationsByKind[k]}
	}
	return out
}

// EnableCosts turns per-kind cost accounting on. Mirroring the other
// observability layers it is enable-only and callable between collections.
func (e *Engine) EnableCosts() {
	if e.costs == nil {
		e.costs = &costState{}
	}
}

// costRows returns the per-kind cost rows of the collection that just
// finished sweeping, or nil when attribution is disabled. PostSweep hands
// them to the collector, which stamps them onto the Collection record.
func (e *Engine) costRows() []collector.AssertCost {
	cs := e.costs
	if cs == nil {
		return nil
	}
	act := e.LastCycle()
	out := make([]collector.AssertCost, NumKinds)
	for k := range out {
		out[k] = collector.AssertCost{Kind: Kind(k).String(), Checks: act[k].Checks, Ns: cs.ns[k]}
	}
	return out
}

// addSince folds one timed slow-path block into a kind's bucket.
func (cs *costState) addSince(k Kind, t0 time.Time) {
	cs.ns[k] += int64(time.Since(t0))
}

// CheckDeltas maps the engine-stats delta between two snapshots to per-kind
// check counts, each in its kind's natural unit: dead = asserted-dead
// objects resolved (reclaimed or caught reachable), instances = tracked-type
// limit comparisons, unshared = re-encounters of unshared-flagged objects,
// ownedby = ownee membership checks in the ownership phase.
// Improper-ownership has no separate check step (it is detected during
// ownedby checking), so its row stays zero. It is the one definition of
// each kind's unit: LastCycle, and through it every per-cycle view, uses it.
func CheckDeltas(before, after Stats) [NumKinds]uint64 {
	return [NumKinds]uint64{
		KindDead: (after.DeadVerified + after.DeadViolations) -
			(before.DeadVerified + before.DeadViolations),
		KindInstances: after.InstanceChecks - before.InstanceChecks,
		KindUnshared:  after.UnsharedChecks - before.UnsharedChecks,
		KindOwnedBy:   after.OwneesChecked - before.OwneesChecked,
	}
}
