// Package telemetry is the observability layer for the gcassert runtime:
// a structured GC event trace (fixed-size lock-free ring buffer, drainable
// as JSONL, a Go gctrace-style log, or Chrome trace_event JSON for
// chrome://tracing / Perfetto), a metrics registry (counters, gauges, a
// log-bucketed pause histogram) rendered in Prometheus text exposition
// format, and an opt-in net/http surface.
//
// The package is a leaf: it imports only the standard library and the
// equally leaf-like internal/sse fan-out hub behind the live feed.
// internal/rt feeds it from one of the collector's observers, which turns
// each completed collection record into an Event; when telemetry is
// disabled nothing here is ever constructed and the collector's observer
// list has no telemetry entry.
//
// All read paths (Events, metric reads, Prometheus rendering, the HTTP
// handlers except the heap profile) are safe to call concurrently with a
// running workload: the ring uses atomic pointers, metrics use atomics,
// and the violation log is mutex-protected.
package telemetry

import "time"

// PhaseSpan is one timed phase of a collection, with an exact wall-clock
// window (the duration is the collector's authoritative measurement, so
// per-phase sums over the trace match the collector's cumulative stats).
type PhaseSpan struct {
	// Phase is the phase label: "ownership", "mark" or "sweep".
	Phase string `json:"phase"`
	// StartUnixNs is the phase's wall-clock start, Unix nanoseconds.
	StartUnixNs int64 `json:"start_unix_ns"`
	// DurNs is the phase duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
}

// KindCount is per-assertion-kind activity within one collection.
type KindCount struct {
	// Kind is the assertion kind label (e.g. "assert-dead").
	Kind string `json:"kind"`
	// Checks is the number of checks of this kind performed during the
	// collection; Violations the number reported.
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// AssertCost attributes one assertion kind's share of a collection: checks
// performed (exact counter deltas, in the kind's natural unit) and
// slow-path time in nanoseconds.
type AssertCost struct {
	Kind   string `json:"kind"`
	Checks uint64 `json:"checks"`
	Ns     int64  `json:"ns"`
}

// ThreadAlloc is one mutator thread's cumulative allocation volume at the
// time of the event (consumers diff successive events for rates).
type ThreadAlloc struct {
	Name    string `json:"name"`
	Objects uint64 `json:"objects"`
	Words   uint64 `json:"words"`
}

// Event is the structured record of one collection cycle.
type Event struct {
	// Seq is the tracer-assigned monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Reason is the collection's trigger label.
	Reason string `json:"reason"`
	// StartUnixNs is the collection's wall-clock start, Unix nanoseconds.
	StartUnixNs int64 `json:"start_unix_ns"`
	// TotalNs is the full stop-the-world pause in nanoseconds.
	TotalNs int64 `json:"total_ns"`
	// Phases holds the timed phases in cycle order (ownership only when it
	// ran).
	Phases []PhaseSpan `json:"phases"`
	// RootsScanned, ObjectsMarked, ObjectsFreed, ObjectsLive and WordsFreed
	// summarize the trace and sweep.
	RootsScanned  int `json:"roots_scanned"`
	ObjectsMarked int `json:"objects_marked"`
	ObjectsFreed  int `json:"objects_freed"`
	ObjectsLive   int `json:"objects_live"`
	WordsFreed    int `json:"words_freed"`
	// Kinds is per-assertion-kind activity (nil in Base mode).
	Kinds []KindCount `json:"kinds,omitempty"`
	// Trigger is the one-line trigger explanation (the runtime's pressure
	// tracker stamps it on every collection).
	Trigger string `json:"trigger,omitempty"`
	// OccupancyPct is the heap occupancy observed at trigger time;
	// AllocRateWps the allocation-rate EWMA (words/second) and TriggerThread
	// the dominant allocating thread of the inter-GC window. All zero
	// without a Trigger.
	OccupancyPct  float64 `json:"occupancy_pct,omitempty"`
	AllocRateWps  float64 `json:"alloc_rate_wps,omitempty"`
	TriggerThread string  `json:"trigger_thread,omitempty"`
	// Costs is per-assertion-kind cost attribution (nil in Base mode and
	// when the collection ran no assertion checks).
	Costs []AssertCost `json:"assert_costs,omitempty"`
	// Threads is per-thread cumulative allocation volume at event time.
	Threads []ThreadAlloc `json:"threads,omitempty"`
	// Request is the request tag active when the collection began, as 16
	// lowercase hex digits (the tracing layer sets Runtime.SetRequestTag
	// around each traced request to the request's span ID, so this is the
	// span ID's hex form). Empty when tracing is off or no request was
	// executing.
	Request string `json:"request,omitempty"`
}

// PhaseNs returns the duration of the named phase in nanoseconds (0 if the
// phase did not run).
func (e *Event) PhaseNs(phase string) int64 {
	for _, p := range e.Phases {
		if p.Phase == phase {
			return p.DurNs
		}
	}
	return 0
}

// Start returns the event's wall-clock start time.
func (e *Event) Start() time.Time { return time.Unix(0, e.StartUnixNs) }

// PauseWindow returns the collection's stop-the-world window as Unix
// nanoseconds: [start, start+total). Request-latency attribution intersects
// these windows with request lifetimes.
func (e *Event) PauseWindow() (startNs, endNs int64) {
	return e.StartUnixNs, e.StartUnixNs + e.TotalNs
}

// DominantCost returns the assertion kind with the largest attributed
// slow-path time in this collection, with its share of the attributed total
// (0..1). Empty when the event carries no cost attribution or no kind
// recorded any slow-path time.
func (e *Event) DominantCost() (kind string, share float64) {
	var total, best int64
	for _, c := range e.Costs {
		total += c.Ns
		if c.Ns > best {
			best, kind = c.Ns, c.Kind
		}
	}
	if total <= 0 {
		return "", 0
	}
	return kind, float64(best) / float64(total)
}
