package core

import (
	"fmt"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// visitedBit marks ownership-phase worklist entries whose children have been
// scanned, giving the same path-reconstruction property as the collector's
// main trace.
const visitedBit heap.Addr = 1

// ownershipPhase implements the paper's modified trace order (§2.5.2): before
// root scanning, trace from each owner object *without marking the owner
// itself*. An ownee reached from its own owner is marked owned and the scan
// truncates at it; ownees are queued and their subtrees traced after the
// owner's direct region, so back edges into the owner's structure do not
// cause false positives. Encountering a different owner marks it and stops
// (it gets its own scan); encountering an ownee of a different owner is
// improper use (owner regions must be disjoint).
//
// Everything marked here is skipped by the normal scan, so no object is
// processed twice and the ownership check itself adds no per-object memory.
func (e *Engine) ownershipPhase(c *collector.Collector) {
	if len(e.owners) == 0 {
		return
	}
	e.col = c
	for i := range e.owners {
		e.curOwner = i
		rec := &e.owners[i]
		e.ostack = e.ostack[:0]
		e.owneeQueue = e.owneeQueue[:0]
		// Seed with the owner. The scan loop never marks the entry it pops
		// (marking happens edge-side), so the owner stays unmarked: it must
		// prove its own liveness via the root scan.
		e.ostack = append(e.ostack, rec.owner)
		e.drainOwnership()
		// Now trace the subtrees hanging off the queued ownees. The queue
		// grows as nested ownees of the same owner are discovered. It is
		// drained in order, so the subtrees a few positions ahead are
		// prefetched while the current one is traced.
		for qi := 0; qi < len(e.owneeQueue); qi++ {
			e.space.PrefetchQueue(e.owneeQueue, qi)
			e.ostack = append(e.ostack[:0], e.owneeQueue[qi])
			e.drainOwnership()
		}
	}
	e.col = nil
}

func (e *Engine) drainOwnership() {
	for len(e.ostack) > 0 {
		top := e.ostack[len(e.ostack)-1]
		if top&visitedBit != 0 {
			e.ostack = e.ostack[:len(e.ostack)-1]
			continue
		}
		e.ostack[len(e.ostack)-1] = top | visitedBit
		e.ownParent = top
		e.space.ForEachRef(top, e.ownVisit)
	}
}

// ownVisit processes one edge discovered during the ownership phase.
func (e *Engine) ownVisit(slot int, t heap.Addr) {
	s := e.space
	rec := &e.owners[e.curOwner]
	if t == rec.owner {
		// A back edge to the owner itself: the owner must not be marked by
		// its own scan (it proves liveness via the root scan).
		return
	}
	f := s.Flags(t)

	// The dead check applies to every edge of the ownership phase, whatever
	// kind of object it reaches — in particular to ownees, which would
	// otherwise be marked here and never re-examined by the normal scan.
	if f&heap.FlagDead != 0 {
		if e.onDeadReachable(e.col, t, f) == collector.EdgeClear {
			s.ClearRefSlot(e.ownParent, slot)
			return
		}
	}

	if f&heap.FlagOwnee != 0 {
		e.stats.OwneesChecked++
		// Membership is one indexed load from the ownee→owner side table.
		if asserted := e.ownerOf(t); asserted != rec.owner && f&flagImproper == 0 {
			// Overlap between owner regions: improper use of the assertion.
			e.stats.ImproperOwnership++
			e.markLogged(t, flagImproper)
			root, ancestors := e.edgeContext(e.col)
			e.report(&Violation{
				Kind:     KindImproperOwnership,
				GC:       e.col.GCCount(),
				Object:   t,
				TypeName: s.TypeName(t),
				Root:     root,
				Path:     BuildPath(s, ancestors, t),
				Message: fmt.Sprintf("ownee of %s@%#x reached while scanning from %s@%#x; owner regions must be disjoint",
					s.TypeName(asserted), uint32(asserted), s.TypeName(rec.owner), uint32(rec.owner)),
			})
		}
		if f&heap.FlagMark == 0 {
			s.SetMark(t)
			e.owneeQueue = append(e.owneeQueue, t)
		}
		// Reached from an owner: consider it owned (for overlapping regions
		// the improper-use warning above has already fired).
		s.SetFlag(t, heap.FlagOwned)
		return // truncate: the subtree is traced from the ownee queue
	}

	if f&heap.FlagOwner != 0 && t != rec.owner {
		// Another owner: mark it and stop — it is scanned independently.
		if f&heap.FlagMark == 0 {
			s.SetMark(t)
		}
		return
	}

	if f&heap.FlagMark != 0 {
		if f&heap.FlagUnshared != 0 && f&flagLogged == 0 {
			e.onSharedUnshared(e.col, t)
		}
		return
	}

	s.SetMark(t)
	e.ostack = append(e.ostack, t)
}

// ownershipPath snapshots the owner-to-current-object path from the
// ownership worklist (entries with the visited bit, bottom first).
func (e *Engine) ownershipPath() []heap.Addr {
	var path []heap.Addr
	for _, entry := range e.ostack {
		if entry&visitedBit != 0 {
			path = append(path, entry&^visitedBit)
		}
	}
	return path
}

// edgeContext returns the root description and ancestor path of the edge
// being checked: the scanned owner and the ownership worklist during the
// pre-phase, the collector's current root and trace stack otherwise. It
// formats a string and copies a worklist, so callers ask for it only once
// they are certain to build a Violation.
func (e *Engine) edgeContext(c *collector.Collector) (string, []heap.Addr) {
	if e.col == nil {
		return c.CurrentRoot(), c.CurrentPath()
	}
	owner := e.owners[e.curOwner].owner
	return fmt.Sprintf("owner %s@%#x", e.space.TypeName(owner), uint32(owner)), e.ownershipPath()
}
