package rt

import (
	"fmt"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/telemetry"
)

// telemetrySink turns each collection record into a telemetry Event. It
// lives only on telemetry-enabled runtimes.
//
// The sink runs inside stop-the-world collections on the runtime's
// goroutine, so plain fields need no synchronization; the tracer it feeds
// is the concurrency boundary.
type telemetrySink struct {
	r *Runtime
	t *telemetry.Tracer

	// heapLast is the heap stats at the previous collection, so the
	// allocation counters cover the whole inter-GC window.
	heapLast heap.Stats
}

func newTelemetrySink(r *Runtime, t *telemetry.Tracer) *telemetrySink {
	return &telemetrySink{r: r, t: t, heapLast: r.space.Stats()}
}

func (s *telemetrySink) GCBegin(col *collector.Collection) { s.t.RecordTrigger(string(col.Reason)) }

// GCEnd builds the event from the record: the pause window and every phase
// span are the collector's own clock reads, so the spans lie inside the
// window and sum with the collector's per-phase stats.
func (s *telemetrySink) GCEnd(col *collector.Collection) {
	ev := &telemetry.Event{
		Reason:        string(col.Reason),
		StartUnixNs:   col.Start.UnixNano(),
		TotalNs:       int64(col.TotalTime),
		Phases:        make([]telemetry.PhaseSpan, 0, 3),
		RootsScanned:  col.RootsScanned,
		ObjectsMarked: col.ObjectsMarked,
		ObjectsFreed:  col.ObjectsFreed,
		ObjectsLive:   col.ObjectsLive,
		WordsFreed:    col.WordsFreed,
	}
	for p := collector.PhaseOwnership; p <= collector.PhaseSweep; p++ {
		if start, d, ok := col.PhaseSpan(p); ok {
			ev.Phases = append(ev.Phases, telemetry.PhaseSpan{Phase: p.String(), StartUnixNs: start.UnixNano(), DurNs: int64(d)})
		}
	}
	if col.Request != 0 {
		ev.Request = fmt.Sprintf("%016x", col.Request)
	}
	if s.r.engine != nil {
		act := s.r.engine.LastCycle()
		ev.Kinds = make([]telemetry.KindCount, core.NumKinds)
		for k, a := range act {
			ev.Kinds[k] = telemetry.KindCount{Kind: core.Kind(k).String(), Checks: a.Checks, Violations: a.Violations}
		}
	}
	// Cost attribution and the pressure tracker stamp the collection
	// record; copy them through so the event stream (and the live SSE feed)
	// carries the full operator view.
	if col.Trigger.Why != "" {
		ev.Trigger = col.Trigger.Why
		ev.OccupancyPct = col.Trigger.OccupancyPct
		ev.AllocRateWps = col.Trigger.AllocRateWps
		ev.TriggerThread = col.Trigger.ByThread
	}
	if len(col.AssertCost) > 0 {
		ev.Costs = make([]telemetry.AssertCost, len(col.AssertCost))
		for i, c := range col.AssertCost {
			ev.Costs[i] = telemetry.AssertCost{Kind: c.Kind, Checks: c.Checks, Ns: c.Ns}
		}
	}
	if s.r.pressure != nil {
		ev.Threads = make([]telemetry.ThreadAlloc, len(s.r.threads))
		for i, th := range s.r.threads {
			ev.Threads[i] = telemetry.ThreadAlloc{Name: th.name, Objects: th.allocObjects, Words: th.allocWords}
		}
	}
	hs := s.r.space.Stats()
	s.t.AddAllocations(hs.ObjectsAllocated-s.heapLast.ObjectsAllocated,
		hs.WordsAllocated-s.heapLast.WordsAllocated)
	s.heapLast = hs
	s.t.Record(ev)
}
