// Package collector implements the stop-the-world mark-sweep garbage
// collector that GC assertions piggyback on. It mirrors the structure the
// paper relies on in Jikes RVM's MarkSweep plan:
//
//   - an optional ownership pre-phase run by the assertion engine before
//     root scanning (§2.5.2),
//   - a depth-first mark phase over worklists, the lanes (trace.go), run
//     one at a time or interleaved, in each of which the current object
//     stays on the worklist with its low-order address bit set, so that at
//     any moment the set-bit entries of the lane being scanned spell out
//     the complete path from a root to the current object (§2.7),
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
	// object's slot — when the child carries assertion flags. marked
	// reports whether the child was already marked.
	OnEdge(c *Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) EdgeAction
	// PostMark runs after tracing completes, before sweep: weak
	// registrations of objects about to be swept are pruned here.
	PostMark(c *Collector)
	// PostSweep runs after the sweep, which has counted the survivors
	// (instance limits) and the reclaimed asserted-dead objects. It returns
	// the collection's per-kind cost rows, or nil when cost attribution is
	// off; the returned slice is owned by the caller.
	PostSweep(c *Collector) []AssertCost
}

// Collector drives collections over a Space.
type Collector struct {
	space *heap.Space
	roots RootScanner

	// hooks is non-nil only when infrastructure mode is enabled.
	hooks Hooks
	infra bool

	// lanes are the marker's worklists (trace.go); lane is the one being
	// scanned. In infrastructure mode entries may carry the visited bit
	// (bit 0), which is guaranteed free by word alignment.
	lanes [numLanes]lane
	lane  *lane
	// rootBuf holds the cycle's root slots, which idle lanes take in order
	// from nextRoot; addRoot appends one, and is made once so that the root
	// scan allocates nothing. marked counts the cycle's marks. prefetch is
	// off while one lane runs alone. stop holds the header flags whose edges
	// go to the hooks: the assertion flags when hooks are installed in
	// infrastructure mode, none otherwise.
	rootBuf  []Root
	addRoot  func(Root)
	nextRoot int
	marked   int
	prefetch bool
	stop     heap.Flag
	// window is the length of the regime probe's window: probeScans, or
	// what a test sets to make small heaps change regime (0: interleave
	// from the first scan, with no probe).
	window int
	// marking is set from the start of the ownership pre-phase to the end
	// of the sweep. A collection that finds it set follows one that a hook
	// panicked out of (a ReactHalt), whose marks are still in the headers.
	marking bool

	// Observers are notified at both ends of every collection, in list
	// order. The runtime fills the list once, when it is built.
	Observers []Observer

	// checkMark, when set (by tests), receives VerifyMark's verdict after
	// every mark phase.
	checkMark func(error)

	gcCount uint64
	stats   Stats
	last    Collection
	rec     Collection // the record of the collection in progress

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
	c := &Collector{space: space, roots: roots, hooks: hooks, infra: infra, window: probeScans}
	c.addRoot = func(r Root) { c.rootBuf = append(c.rootBuf, r) }
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
	// The record is built in the collector, not on the heap: observers see
	// it through a pointer, and a fresh record would escape per cycle.
	c.rec = Collection{Seq: c.gcCount, Reason: reason, Start: start, Request: c.requestTag}
	col := &c.rec
	for _, o := range c.Observers {
		o.GCBegin(col)
	}

	if c.marking {
		c.unmarkAll()
	}
	c.marking = true
	hooked := c.infra && c.hooks != nil
	if hooked {
		col.PhaseStart[PhaseOwnership] = time.Now()
		c.hooks.PreMark(c)
		col.OwnershipTime = time.Since(col.PhaseStart[PhaseOwnership])
	}

	col.PhaseStart[PhaseMark] = time.Now()
	c.mark(col)
	col.MarkTime = time.Since(col.PhaseStart[PhaseMark])
	if c.checkMark != nil {
		c.checkMark(c.VerifyMark())
	}

	if hooked {
		c.hooks.PostMark(c)
	}

	col.PhaseStart[PhaseSweep] = time.Now()
	sw := c.space.Sweep()
	c.marking = false
	col.SweepTime = time.Since(col.PhaseStart[PhaseSweep])
	col.ObjectsFreed = sw.ObjectsFreed
	col.ObjectsLive = sw.ObjectsLive
	col.WordsFreed = sw.WordsFreed
	if hooked {
		col.AssertCost = c.hooks.PostSweep(c)
	}
	col.TotalTime = time.Since(start)

	c.gcCount++
	c.stats.add(*col)
	c.last = *col
	for _, o := range c.Observers {
		o.GCEnd(col)
	}
	return *col
}

// unmarkAll clears the mark bit of every object, which a collection that
// was abandoned before its sweep left set: a marked object is one the next
// trace would not scan, and its unmarked children would be swept while
// reachable.
func (c *Collector) unmarkAll() {
	c.space.ForEachObject(func(a heap.Addr) bool {
		c.space.ClearMark(a)
		return true
	})
}

// Last returns the record of the most recent collection.
func (c *Collector) Last() Collection { return c.last }

// Stats returns cumulative collection statistics.
func (c *Collector) Stats() Stats { return c.stats }

// ResetStats zeroes the cumulative statistics (the GC count is preserved).
func (c *Collector) ResetStats() { c.stats = Stats{} }
