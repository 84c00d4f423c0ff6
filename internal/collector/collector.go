// Package collector implements the stop-the-world mark-sweep garbage
// collector that GC assertions piggyback on. It mirrors the structure the
// paper relies on in Jikes RVM's MarkSweep plan:
//
//   - an optional ownership pre-phase run by the assertion engine before
//     root scanning (§2.5.2),
//   - a depth-first mark phase over a worklist in which the current object
//     stays on the worklist with its low-order address bit set, so that at
//     any moment the set-bit entries spell out the complete path from a root
//     to the current object (§2.7),
//   - per-edge assertion checks performed only in Infrastructure mode, so
//     the Base configuration measures the unmodified collector,
//   - a sweep phase provided by the heap.
//
// The assertion engine (internal/core) plugs in through the Hooks interface;
// the collector itself knows nothing about individual assertion kinds.
package collector

import (
	"time"

	"gcassert/internal/heap"
)

// Root is one root slot: a location outside the heap holding a reference.
// Slot points at the live storage (a thread frame slot or a global), so the
// collector reads the current value and force-true reactions can clear it.
type Root struct {
	// Slot is the storage holding the reference.
	Slot *heap.Addr
	// Desc names the root for violation reports (e.g. "main.locals" or
	// "global:orderTable").
	Desc string
}

// RootScanner enumerates all root slots. The runtime implements it over
// thread frames and the global table.
type RootScanner interface {
	// Roots calls yield once per root slot.
	Roots(yield func(r Root))
}

// EdgeAction is the assertion engine's verdict on an edge.
type EdgeAction uint8

// Edge actions returned by Hooks.OnEdge.
const (
	// EdgeProceed continues normal tracing.
	EdgeProceed EdgeAction = iota
	// EdgeSkip does not trace through the edge (the child is not marked via
	// this edge).
	EdgeSkip
	// EdgeClear severs the edge — the slot is set to nil — and skips it.
	// This implements the force-the-assertion-true reaction (§2.6).
	EdgeClear
)

// Hooks is the assertion engine's interface into the collection cycle. All
// methods are invoked only in Infrastructure mode.
type Hooks interface {
	// PreMark runs before root scanning; the ownership phase lives here.
	PreMark(c *Collector)
	// OnEdge is called for a reference edge discovered during the normal
	// scan — from a root (parent == heap.Nil, slot == -1) or from a parent
	// object's slot — when the child carries assertion flags, or (if
	// WantAllFirstMarks) for every first encounter. marked reports whether
	// the child was already marked.
	OnEdge(c *Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) EdgeAction
	// WantAllFirstMarks asks the engine whether it needs OnEdge for every
	// unmarked child even without assertion flags (instance counting).
	// Consulted once per collection.
	WantAllFirstMarks() bool
	// PostMark runs after tracing completes, before sweep: volume-assertion
	// checks and weak-registration pruning happen here.
	PostMark(c *Collector)
}

// Collector drives collections over a Space.
type Collector struct {
	space *heap.Space
	roots RootScanner

	// hooks is non-nil only when infrastructure mode is enabled. costHooks
	// caches the CostHooks type assertion so Collect pays one nil-check for
	// cost harvesting instead of an interface assertion per cycle.
	hooks     Hooks
	costHooks CostHooks
	infra     bool

	// stack is the mark worklist. In infrastructure mode entries may carry
	// the visited bit (bit 0), which is guaranteed free by word alignment.
	stack []heap.Addr

	// curParent and curRootDesc identify the edge source while scanning;
	// col is the in-progress collection record.
	curParent   heap.Addr
	curRootDesc string
	col         *Collection
	// allFirstMarks caches Hooks.WantAllFirstMarks for the current cycle.
	allFirstMarks bool

	// Observer, if non-nil, receives collection-lifecycle callbacks
	// (telemetry). The disabled path costs one nil-check per phase.
	Observer Observer
	// OnMark, if non-nil, is invoked once for every object the trace marks,
	// in both Base and Infrastructure configurations. The heap-census
	// introspection layer hangs off this: the collector already visits every
	// live object, so a per-type census is one callback away (the paper's
	// "nearly free" piggybacking argument applied to observability). When
	// nil (the default) the mark hot path pays a single predictable branch
	// and zero allocations, mirroring the Observer pattern.
	OnMark func(heap.Addr)
	// ExplainTrigger, if non-nil, is consulted at the top of every collection
	// to stamp the record with the mutator-side story behind the Reason
	// (occupancy, allocation rate, dominant thread). The runtime installs it;
	// when nil the cost is a single nil-check per cycle.
	ExplainTrigger func(reason Reason) Trigger

	gcCount uint64
	stats   Stats
	last    Collection

	// requestTag, when non-zero, stamps every collection record with the
	// request currently executing (Collection.Request). Set and cleared by
	// the tracing layer on the runtime's own goroutine, read at the top of
	// Collect on the same goroutine — no synchronization needed, same
	// single-goroutine discipline as the rest of the collector.
	requestTag uint64
}

// New creates a collector over the given space and roots. hooks may be nil;
// infrastructure mode with nil hooks still pays for path tracking and edge
// dispatch, which is exactly the paper's "Infrastructure" configuration
// before any assertions are added.
func New(space *heap.Space, roots RootScanner, hooks Hooks, infra bool) *Collector {
	c := &Collector{space: space, roots: roots, hooks: hooks, infra: infra}
	if ch, ok := hooks.(CostHooks); ok {
		c.costHooks = ch
	}
	return c
}

// Space returns the collector's heap.
func (c *Collector) Space() *heap.Space { return c.space }

// Infrastructure reports whether assertion infrastructure is enabled.
func (c *Collector) Infrastructure() bool { return c.infra }

// GCCount returns the number of completed collections.
func (c *Collector) GCCount() uint64 { return c.gcCount }

// SetRequestTag names the request currently executing on the mutator; a
// zero tag clears it. Every collection records the tag active when its
// pause began (Collection.Request), giving the tracing layer exact
// request-to-GC provenance instead of wall-clock inference. Call it from
// the runtime's goroutine only, between collections.
func (c *Collector) SetRequestTag(tag uint64) { c.requestTag = tag }

// Collect runs one full stop-the-world collection and returns its record.
// reason is recorded in the stats (typically ReasonAllocFailure or
// ReasonForced).
func (c *Collector) Collect(reason Reason) Collection {
	start := time.Now()
	col := Collection{Seq: c.gcCount, Reason: reason, Start: start, Request: c.requestTag}
	if c.ExplainTrigger != nil {
		col.Trigger = c.ExplainTrigger(reason)
	}
	obs := c.Observer
	if obs != nil {
		obs.GCBegin(c.gcCount, reason)
	}

	if c.infra && c.hooks != nil {
		if obs != nil {
			obs.PhaseBegin(PhaseOwnership)
		}
		t0 := time.Now()
		c.hooks.PreMark(c)
		col.OwnershipTime = time.Since(t0)
		if obs != nil {
			obs.PhaseEnd(PhaseOwnership, col.OwnershipTime)
		}
	}

	if obs != nil {
		obs.PhaseBegin(PhaseMark)
	}
	t0 := time.Now()
	if c.infra {
		c.markInfra(&col)
	} else {
		c.markBase(&col)
	}
	col.MarkTime = time.Since(t0)
	if obs != nil {
		obs.PhaseEnd(PhaseMark, col.MarkTime)
	}

	if c.infra && c.hooks != nil {
		c.hooks.PostMark(c)
	}

	if obs != nil {
		obs.PhaseBegin(PhaseSweep)
	}
	t0 = time.Now()
	sw := c.space.Sweep()
	col.SweepTime = time.Since(t0)
	if obs != nil {
		obs.PhaseEnd(PhaseSweep, col.SweepTime)
	}
	col.ObjectsFreed = sw.ObjectsFreed
	col.ObjectsLive = sw.ObjectsLive
	col.WordsFreed = sw.WordsFreed
	// Cost rows are harvested after the sweep, which is where the
	// dead-verification count (heap.Stats.DeadFreed) accrues.
	if c.infra && c.costHooks != nil {
		col.AssertCost = c.costHooks.CollectionCosts()
	}
	col.TotalTime = time.Since(start)

	c.gcCount++
	c.stats.add(col)
	c.last = col
	if obs != nil {
		obs.GCEnd(&col)
	}
	return col
}

// Last returns the record of the most recent collection.
func (c *Collector) Last() Collection { return c.last }

// Stats returns cumulative collection statistics.
func (c *Collector) Stats() Stats { return c.stats }

// ResetStats zeroes the cumulative statistics (the GC count is preserved).
func (c *Collector) ResetStats() { c.stats = Stats{} }
