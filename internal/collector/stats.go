package collector

import (
	"fmt"
	"time"
)

// AssertCost attributes one assertion kind's share of a collection: how many
// checks the cycle performed for the kind and how long the kind's rare-path
// handling took. Work counts are exact (they are deltas of the engine's
// check counters); times cover the flagged slow paths only — the per-edge
// fast path is deliberately untimed so attribution never perturbs the mark
// loop it measures.
type AssertCost struct {
	// Kind is the assertion kind's stable label ("assert-dead",
	// "assert-instances", "assert-unshared", "assert-ownedby",
	// "improper-ownership").
	Kind string
	// Checks is the number of checks performed for the kind this cycle, in
	// the kind's natural unit (dead results, instance-count increments,
	// unshared re-encounters, ownees checked).
	Checks uint64
	// Ns is the time spent in the kind's handling this cycle, in
	// nanoseconds. Zero for kinds whose work is folded into the untimed
	// per-edge fast path.
	Ns int64
}

// CostHooks is an optional extension of Hooks implemented by engines that
// attribute per-assertion-kind cost. The collector caches the type assertion
// at construction, so a cycle with attribution disabled pays one nil-check.
type CostHooks interface {
	Hooks
	// CollectionCosts returns the per-kind cost rows for the collection that
	// just finished sweeping (dead-verification counts accrue during sweep),
	// or nil when attribution is disabled. The returned slice is owned by the
	// caller.
	CollectionCosts() []AssertCost
}

// Trigger explains why a collection ran, for operators: the mechanical
// Reason plus the heap pressure behind it and the mutator that applied it.
type Trigger struct {
	// Why is a one-line human-readable explanation, e.g.
	// "heap exhausted at 92% occupancy (alloc rate 1.2e+07 words/s)".
	Why string
	// OccupancyPct is the heap occupancy (live words / capacity words × 100)
	// observed when the collection was triggered.
	OccupancyPct float64
	// AllocRateWps is the allocation-rate EWMA in words/second at trigger
	// time (0 until the first interval completes).
	AllocRateWps float64
	// ByThread names the dominant allocating thread since the previous
	// collection ("main", ...); empty when nothing allocated.
	ByThread string
	// ByThreadWords is that thread's allocation volume, in words, since the
	// previous collection.
	ByThreadWords uint64
	// BySite names the dominant allocating site of the window (provenance
	// required; empty otherwise).
	BySite string
}

// Collection records one collection cycle.
type Collection struct {
	// Seq is the collection's sequence number (0-based).
	Seq uint64
	// Reason records why the collection ran (ReasonAllocFailure,
	// ReasonForced, ...).
	Reason Reason
	// Start is when the pause began; the pause is [Start, Start+TotalTime].
	Start time.Time
	// OwnershipTime is the time spent in the assertion engine's ownership
	// pre-phase (zero in Base mode or with no ownership assertions).
	OwnershipTime time.Duration
	// MarkTime is the time spent in the root scan and transitive mark.
	MarkTime time.Duration
	// SweepTime is the time spent sweeping.
	SweepTime time.Duration
	// TotalTime is the full stop-the-world pause.
	TotalTime time.Duration
	// RootsScanned is the number of root slots examined.
	RootsScanned int
	// ObjectsMarked is the number of objects marked during the normal scan.
	ObjectsMarked int
	// ObjectsFreed and WordsFreed summarize the sweep.
	ObjectsFreed int
	WordsFreed   int
	// ObjectsLive is the number of survivors after the sweep.
	ObjectsLive int
	// AssertCost attributes the cycle's assertion work per kind; nil unless
	// the engine has cost attribution enabled (Options.CostAttribution).
	AssertCost []AssertCost
	// Trigger explains why the collection ran; zero unless the runtime
	// installed a trigger explainer (Collector.ExplainTrigger).
	Trigger Trigger
	// Request is the request tag active when the collection began (set via
	// Collector.SetRequestTag by the tracing layer; 0 otherwise). It is
	// captured at the top of Collect — the moment the pause starts — so it
	// names the request the pause actually interrupted, a property that
	// stays correct when marking goes concurrent.
	Request uint64
}

func (c Collection) String() string {
	return fmt.Sprintf("GC#%d(%s): %v (own %v, mark %v, sweep %v) marked=%d freed=%d live=%d",
		c.Seq, c.Reason, c.TotalTime, c.OwnershipTime, c.MarkTime, c.SweepTime,
		c.ObjectsMarked, c.ObjectsFreed, c.ObjectsLive)
}

// Stats accumulates collection statistics across cycles.
type Stats struct {
	// Collections is the number of completed cycles.
	Collections uint64
	// TotalGCTime is the sum of all pauses.
	TotalGCTime time.Duration
	// OwnershipTime, MarkTime and SweepTime are per-phase sums.
	OwnershipTime time.Duration
	MarkTime      time.Duration
	SweepTime     time.Duration
	// MaxPause is the longest single pause.
	MaxPause time.Duration
	// ObjectsMarked and ObjectsFreed are cumulative totals.
	ObjectsMarked uint64
	ObjectsFreed  uint64
}

func (s *Stats) add(c Collection) {
	s.Collections++
	s.TotalGCTime += c.TotalTime
	s.OwnershipTime += c.OwnershipTime
	s.MarkTime += c.MarkTime
	s.SweepTime += c.SweepTime
	if c.TotalTime > s.MaxPause {
		s.MaxPause = c.TotalTime
	}
	s.ObjectsMarked += uint64(c.ObjectsMarked)
	s.ObjectsFreed += uint64(c.ObjectsFreed)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d collections, %v total GC time (own %v, mark %v, sweep %v), max pause %v",
		s.Collections, s.TotalGCTime, s.OwnershipTime, s.MarkTime, s.SweepTime, s.MaxPause)
}
