package rt

import (
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/telemetry"
)

// telemetrySink adapts the collector's Observer callbacks into telemetry
// Events. It lives only on telemetry-enabled runtimes; a disabled runtime
// leaves the collector's Observer nil, so the Base trace is unperturbed.
//
// The sink runs inside stop-the-world collections on the runtime's
// goroutine, so plain fields need no synchronization; the tracer it feeds
// is the concurrency boundary.
type telemetrySink struct {
	r *Runtime
	t *telemetry.Tracer

	// engineBefore and heapLast are the stat snapshots used to compute
	// per-collection deltas: engine stats at GCBegin (per-kind checks and
	// violations of this cycle), heap stats carried across collections
	// (allocation counters cover the whole inter-GC window).
	engineBefore core.Stats
	heapLast     heap.Stats

	phaseStart time.Time
	phases     []telemetry.PhaseSpan
}

var _ collector.Observer = (*telemetrySink)(nil)

func newTelemetrySink(r *Runtime, t *telemetry.Tracer) *telemetrySink {
	return &telemetrySink{r: r, t: t, heapLast: r.space.Stats()}
}

func (s *telemetrySink) GCBegin(seq uint64, reason collector.Reason) {
	s.phases = make([]telemetry.PhaseSpan, 0, 3)
	s.t.RecordTrigger(string(reason))
	if s.r.engine != nil {
		s.engineBefore = s.r.engine.Stats()
	}
}

func (s *telemetrySink) PhaseBegin(p collector.Phase) { s.phaseStart = time.Now() }

func (s *telemetrySink) PhaseEnd(p collector.Phase, d time.Duration) {
	s.phases = append(s.phases, telemetry.PhaseSpan{
		Phase:       p.String(),
		StartUnixNs: s.phaseStart.UnixNano(),
		DurNs:       int64(d),
	})
}

// GCEnd stamps the event with the collector's own pause window. A clock read
// in GCBegin would be late (the trigger explainer runs first), and the event
// window [start, start+TotalNs] would end after the real pause did.
func (s *telemetrySink) GCEnd(col *collector.Collection) {
	ev := &telemetry.Event{
		Reason:        string(col.Reason),
		Request:       col.Request,
		StartUnixNs:   col.Start.UnixNano(),
		TotalNs:       int64(col.TotalTime),
		Phases:        s.phases,
		RootsScanned:  col.RootsScanned,
		ObjectsMarked: col.ObjectsMarked,
		ObjectsFreed:  col.ObjectsFreed,
		ObjectsLive:   col.ObjectsLive,
		WordsFreed:    col.WordsFreed,
	}
	s.phases = nil
	if s.r.engine != nil {
		ev.Kinds = kindDeltas(s.engineBefore, s.r.engine.Stats())
	}
	// Cost attribution and the trigger explainer stamp the collection
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

// kindDeltas converts the engine-stats delta of one collection into
// per-kind check/violation counts. The natural-unit mapping lives in
// core.CheckDeltas, shared with the flight recorder and cost attribution so
// the unit definitions cannot drift.
func kindDeltas(before, after core.Stats) []telemetry.KindCount {
	checks := core.CheckDeltas(before, after)
	names := core.KindNames()
	out := make([]telemetry.KindCount, core.NumKinds)
	for k := 0; k < core.NumKinds; k++ {
		out[k] = telemetry.KindCount{
			Kind:       names[k],
			Checks:     checks[k],
			Violations: after.ViolationsByKind[k] - before.ViolationsByKind[k],
		}
	}
	return out
}
