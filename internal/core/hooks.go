package core

import (
	"fmt"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// PreMark implements collector.Hooks: it synchronizes the per-type tables
// with the registry, opens the cycle's activity window (LastCycle) and runs
// the ownership phase (ownership.go). With cost attribution on it bills the
// whole ownership pre-phase to assert-ownedby.
func (e *Engine) PreMark(c *collector.Collector) {
	e.growTypeTables()
	e.cycleAt = e.Stats()
	if cs := e.costs; cs != nil {
		cs.ns = [NumKinds]int64{}
		t0 := time.Now()
		e.ownershipPhase(c)
		cs.addSince(KindOwnedBy, t0)
		return
	}
	e.ownershipPhase(c)
}

// OnEdge implements collector.Hooks. It is the per-edge assertion check the
// paper piggybacks on tracing: one header-flag load per edge, then
//
//   - first encounter (unmarked child): assert-dead check;
//   - re-encounter (marked child): assert-unshared check;
//   - either way: an ownee reached outside the ownership phase without its
//     owned flag is an assert-ownedby violation.
func (e *Engine) OnEdge(c *collector.Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) collector.EdgeAction {
	s := e.space
	f := s.Flags(child)
	act := collector.EdgeProceed
	if !marked && f&heap.FlagDead != 0 {
		// Flagged slow path: timed when attribution is on. The unflagged
		// fast path above stays free of any attribution branch.
		if cs := e.costs; cs != nil {
			t0 := time.Now()
			act = e.onDeadReachable(c, child, f)
			cs.addSince(KindDead, t0)
		} else {
			act = e.onDeadReachable(c, child, f)
		}
		if act == collector.EdgeClear {
			return act
		}
	} else if marked && f&heap.FlagUnshared != 0 {
		e.stats.UnsharedChecks++
		if f&flagLogged == 0 {
			if cs := e.costs; cs != nil {
				t0 := time.Now()
				e.onSharedUnshared(c, child)
				cs.addSince(KindUnshared, t0)
			} else {
				e.onSharedUnshared(c, child)
			}
		}
	}
	if f&heap.FlagOwnee != 0 && f&heap.FlagOwned == 0 && e.col == nil {
		if cs := e.costs; cs != nil {
			t0 := time.Now()
			e.onUnownedReachable(c, child)
			cs.addSince(KindOwnedBy, t0)
		} else {
			e.onUnownedReachable(c, child)
		}
		// Suppress duplicate reports for this ownee within this cycle; the
		// owned flags are reset in PostMark.
		s.SetFlag(child, heap.FlagOwned)
	}
	return act
}

// onDeadReachable handles an asserted-dead object found reachable.
func (e *Engine) onDeadReachable(c *collector.Collector, obj heap.Addr, f heap.Flag) collector.EdgeAction {
	s := e.space
	if f&flagLogged != 0 {
		// Already reported this cycle. In force mode, keep severing every
		// incoming edge so the object really is reclaimed this collection.
		if e.policy[KindDead] == ReactForce {
			return collector.EdgeClear
		}
		return collector.EdgeProceed
	}
	e.stats.DeadViolations++
	e.markLogged(obj, flagLogged)
	root, ancestors := e.edgeContext(c)
	v := &Violation{
		Kind:     KindDead,
		GC:       c.GCCount(),
		Object:   obj,
		TypeName: s.TypeName(obj),
		Site:     s.SiteDesc(obj),
		Root:     root,
		Path:     BuildPath(s, ancestors, obj),
	}
	act := e.report(v)
	if act != collector.EdgeClear {
		// Log mode: the assertion is one-shot; a reported object is not
		// re-reported at later collections. Its logged bit goes too: the bit
		// is shared with assert-unshared, whose report on this object a dead
		// report must not silence. Only a forced object keeps both, so that
		// every later edge into it is severed without a second report.
		s.ClearFlag(obj, heap.FlagDead|flagLogged)
	}
	return act
}

// onSharedUnshared handles a second encounter of an asserted-unshared
// object. As the paper notes (§2.7), only the second path is available.
func (e *Engine) onSharedUnshared(c *collector.Collector, obj heap.Addr) {
	e.stats.UnsharedViolations++
	e.markLogged(obj, flagLogged)
	root, ancestors := e.edgeContext(c)
	v := &Violation{
		Kind:     KindUnshared,
		GC:       c.GCCount(),
		Object:   obj,
		TypeName: e.space.TypeName(obj),
		Site:     e.space.SiteDesc(obj),
		Root:     root,
		Path:     BuildPath(e.space, ancestors, obj),
		Message:  "second path shown; the first path was traced earlier",
	}
	e.report(v)
}

// onUnownedReachable handles an ownee reached during the normal scan without
// having been marked owned by the ownership phase: it is reachable, but not
// through its owner.
func (e *Engine) onUnownedReachable(c *collector.Collector, obj heap.Addr) {
	s := e.space
	e.stats.OwnedViolations++
	root, ancestors := e.edgeContext(c)
	v := &Violation{
		Kind:     KindOwnedBy,
		GC:       c.GCCount(),
		Object:   obj,
		TypeName: s.TypeName(obj),
		Site:     s.SiteDesc(obj),
		Root:     root,
		Path:     BuildPath(s, ancestors, obj),
		Message:  e.unownedMessage(obj),
	}
	e.report(v)
}

// unownedMessage names the asserted owner of an ownee the normal scan
// reached without its owned flag.
func (e *Engine) unownedMessage(obj heap.Addr) string {
	owner := e.ownerOf(obj)
	if owner == heap.Nil {
		return "owner unknown"
	}
	return fmt.Sprintf("asserted owner is %s@%#x, which does not reach the object", e.space.TypeName(owner), uint32(owner))
}

// PostMark implements collector.Hooks: weak pruning of every registration
// table, run after marking and before sweep.
func (e *Engine) PostMark(c *collector.Collector) {
	s := e.space
	e.pruneWeak()

	// Reset per-cycle duplicate suppression.
	for _, a := range e.logged {
		if s.Marked(a) {
			s.ClearFlag(a, flagLogged|flagImproper)
		}
	}
	e.logged = e.logged[:0]
}

// PostSweep implements collector.Hooks: assert-instances compares each
// tracked type's survivors, which the sweep counted, against its limit
// (§2.4.1). The comparison loop is the kind's entire cost (the counting
// rides the untimed sweep), so it is billed wholesale. It returns
// the cycle's cost rows (attrib.go).
func (e *Engine) PostSweep(c *collector.Collector) []collector.AssertCost {
	var instT0 time.Time
	if e.costs != nil {
		instT0 = time.Now()
	}
	s := e.space
	for _, t := range e.tracked {
		e.stats.InstanceChecks++
		if n := s.LiveByType(t); n > e.limits[t] {
			e.stats.InstanceViolations++
			e.report(&Violation{
				Kind:     KindInstances,
				GC:       c.GCCount(),
				TypeName: s.Registry().Name(t),
				Message:  fmt.Sprintf("%d instances live, limit %d", n, e.limits[t]),
			})
		}
	}
	if cs := e.costs; cs != nil {
		cs.addSince(KindInstances, instT0)
	}
	return e.costRows()
}

// pruneWeak drops registrations for objects whose mark bit is clear. It must
// run between a completed mark phase and the sweep: registrations are weak
// references, and leaving a stale address in a table would let a recycled
// cell inherit someone else's assertion. PostMark calls it.
func (e *Engine) pruneWeak() {
	s := e.space

	// Region queues: entries that died inside the region are exactly what
	// the region asserts, so they are simply dropped.
	for _, r := range e.regions {
		keep := r.queue[:0]
		for _, a := range r.queue {
			if s.Marked(a) {
				keep = append(keep, a)
			}
		}
		r.queue = keep
	}

	// Ownership registry: drop dead ownees; dissolve the relation entirely
	// when the owner itself is dying ("we must remove each unreachable
	// ownee after a GC", §3.1.2). Clear the per-cycle owned flags of
	// survivors.
	liveOwners := e.owners[:0]
	for i := range e.owners {
		rec := e.owners[i]
		if !s.Marked(rec.owner) {
			// Dying ownees lose their table entries to the sweep; the
			// survivors' must go now, before the owner's address can be
			// reused by a new owner.
			for _, oe := range rec.ownees {
				if s.Marked(oe) {
					s.ClearFlag(oe, heap.FlagOwnee|heap.FlagOwned)
					e.owneeTab.Set(oe, 0)
				}
			}
			continue
		}
		keep := rec.ownees[:0]
		for _, oe := range rec.ownees {
			if s.Marked(oe) {
				s.ClearFlag(oe, heap.FlagOwned)
				keep = append(keep, oe)
			}
		}
		rec.ownees = keep
		if len(rec.ownees) == 0 {
			s.ClearFlag(rec.owner, heap.FlagOwner)
			continue
		}
		liveOwners = append(liveOwners, rec)
	}
	e.owners = liveOwners
	for k := range e.ownerIdx {
		delete(e.ownerIdx, k)
	}
	for i := range e.owners {
		e.ownerIdx[e.owners[i].owner] = i
	}
}

// removeOwnee deletes ownee from owner's ownee list (used when an ownee is
// re-asserted with a different owner, which then overwrites its table
// entry). Every table entry names a live owner record, so the lookup cannot
// miss.
func (e *Engine) removeOwnee(owner, ownee heap.Addr) {
	rec := &e.owners[e.ownerIdx[owner]]
	for i, oe := range rec.ownees {
		if oe == ownee {
			last := len(rec.ownees) - 1
			rec.ownees[i] = rec.ownees[last]
			rec.ownees = rec.ownees[:last]
			return
		}
	}
}
