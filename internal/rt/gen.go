package rt

import (
	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// generational implements the sticky-mark-bit generational mode. It exists
// to reproduce the paper's §2.2 observation: with a generational collector,
// full-heap collections are infrequent, so GC assertions can go unchecked
// for long periods (measured by the AblationGenerational benchmark).
//
// Scheme: mark bits are sticky — objects that survive a collection keep
// their mark, making "marked" mean "old". A minor collection traces from
// roots plus the remembered set, does not traverse into old objects, and
// sweeps with KeepMarks so old objects are retained wholesale. A write
// barrier records old objects that are stored a reference (their fields act
// as extra minor-GC roots). Full collections clear every mark and run the
// normal assertion-checking cycle; its sweep is sticky too, so the survivors
// — exactly the objects it marked — come out of it old.
type generational struct {
	r     *Runtime
	minor *collector.Collector

	// remset holds old (marked) objects whose fields were mutated; their
	// outgoing references are minor-GC roots. scratch holds the flattened
	// targets during a minor collection so the collector can take slot
	// addresses.
	remset  []heap.Addr
	scratch []heap.Addr

	inMinor   bool
	sinceFull int
	ratio     int

	// Minors and Fulls count collections by kind.
	Minors uint64
	Fulls  uint64
}

func (r *Runtime) initGenerational(cfg Config) {
	g := &generational{r: r, ratio: cfg.MinorRatio}
	if g.ratio <= 0 {
		g.ratio = 4
	}
	g.minor = collector.New(r.space, (*rootScanner)(r), nil, false)
	g.minor.KeepMarks = true
	r.gc.KeepMarks = true
	// Minor collections show up in the telemetry trace too (distinguished
	// by their reason label, which lacks the "-full" suffix), and get their
	// triggers explained by the same pressure tracker.
	g.minor.Observer = r.gc.Observer
	g.minor.ExplainTrigger = r.gc.ExplainTrigger
	g.minor.PreSweep = func() {
		if r.engine != nil {
			r.engine.PruneWeak()
		}
	}
	r.space.WriteBarrier = g.barrier
	r.gen = g
}

// barrier records old→anything stores; unmarked (new) sources need no entry
// because they are traced directly if reachable.
func (g *generational) barrier(src, val heap.Addr) {
	s := g.r.space
	if s.Marked(src) && !s.HasFlag(src, heap.FlagRemembered) {
		s.SetFlag(src, heap.FlagRemembered)
		g.remset = append(g.remset, src)
	}
}

// collect runs the policy for an allocation failure: minor collections until
// the ratio forces a full one.
func (g *generational) collect(reason collector.Reason) {
	if g.sinceFull >= g.ratio {
		g.fullCollect(reason.Full())
		return
	}
	g.minorCollect(reason)
}

func (g *generational) minorCollect(reason collector.Reason) {
	// Flatten the remembered set's outgoing references into scratch so the
	// root scanner can hand out stable slot addresses.
	g.scratch = g.scratch[:0]
	for _, src := range g.remset {
		g.r.space.ForEachRef(src, func(_ int, t heap.Addr) {
			g.scratch = append(g.scratch, t)
		})
	}
	g.inMinor = true
	g.minor.Collect(reason)
	g.inMinor = false
	g.Minors++
	g.sinceFull++
}

func (g *generational) fullCollect(reason collector.Reason) collector.Collection {
	s := g.r.space
	// Un-stick all marks and clear remembered flags so the full trace is a
	// clean slate.
	s.ForEachObject(func(a heap.Addr) bool {
		s.ClearFlag(a, heap.FlagMark|heap.FlagRemembered)
		return true
	})
	g.remset = g.remset[:0]
	// Survivors keep the marks the trace gave them: the old generation.
	col := g.r.gc.Collect(reason)
	g.Fulls++
	g.sinceFull = 0
	return col
}

// extraRoots contributes the remembered set's targets during minor
// collections only.
func (g *generational) extraRoots(yield func(collector.Root)) {
	if !g.inMinor {
		return
	}
	for i := range g.scratch {
		yield(collector.Root{Slot: &g.scratch[i], Desc: "remset"})
	}
}

// MinorStats exposes the minor collector's cumulative statistics.
func (g *generational) MinorStats() collector.Stats { return g.minor.Stats() }

// GenStats reports minor/full collection counts in generational mode; ok is
// false when the runtime is not generational.
func (r *Runtime) GenStats() (minors, fulls uint64, ok bool) {
	if r.gen == nil {
		return 0, 0, false
	}
	return r.gen.Minors, r.gen.Fulls, true
}

// MinorGCStats returns the cumulative stats of the minor collector (zero
// when not generational).
func (r *Runtime) MinorGCStats() collector.Stats {
	if r.gen == nil {
		return collector.Stats{}
	}
	return r.gen.MinorStats()
}
