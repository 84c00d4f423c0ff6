package gcassert

import (
	"io"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/flight"
	"gcassert/internal/heap"
	"gcassert/internal/rt"
	"gcassert/internal/telemetry"
)

// Re-exported data types. These are aliases: values flow between the public
// API and the internal packages without conversion.
type (
	// Ref is a managed heap reference; the zero Ref is nil.
	Ref = heap.Addr
	// TypeID identifies a registered object type.
	TypeID = heap.TypeID
	// Field declares one object field (name + whether it is a reference).
	Field = heap.Field
	// Violation describes a triggered assertion, including the full heap
	// path from a root to the offending object.
	Violation = core.Violation
	// PathStep is one hop of a violation's heap path.
	PathStep = core.PathStep
	// Kind is an assertion kind.
	Kind = core.Kind
	// Reaction selects what happens when an assertion triggers.
	Reaction = core.Reaction
	// Policy maps assertion kinds to reactions.
	Policy = core.Policy
	// Reporter receives violations.
	Reporter = core.Reporter
	// CollectingReporter records violations in memory.
	CollectingReporter = core.CollectingReporter
	// HaltError is the panic payload of the ReactHalt reaction.
	HaltError = core.HaltError
	// Options configures a Runtime: the heap size, the Base or
	// Infrastructure configuration, violation reporting and reactions, and
	// the optional observability layers, every one off by default. See
	// rt.Config for each field and for which layer implies which.
	Options = rt.Config
	// Thread is a mutator context whose frames are GC roots.
	Thread = rt.Thread
	// Frame is a shadow-stack frame of local reference slots.
	Frame = rt.Frame
	// GCStats summarizes collector activity.
	GCStats = collector.Stats
	// Collection records one collection cycle.
	Collection = collector.Collection
	// GCReason labels why a collection ran.
	GCReason = collector.Reason
	// AssertStats counts assertion-engine activity.
	AssertStats = core.Stats
	// HeapStats summarizes allocation activity.
	HeapStats = heap.Stats
	// Telemetry is the observability layer: GC event trace, metrics
	// registry with pause histogram, violation log, and HTTP surface.
	// Obtain it with Runtime.Telemetry() on a telemetry-enabled runtime.
	Telemetry = telemetry.Tracer
	// GCEvent is one structured GC trace record.
	GCEvent = telemetry.Event
	// PhaseSpan is one timed phase within a GCEvent.
	PhaseSpan = telemetry.PhaseSpan
	// KindCount is per-assertion-kind activity within a GCEvent.
	KindCount = telemetry.KindCount
	// Histogram is a log-bucketed duration histogram (pause times).
	Histogram = telemetry.Histogram
	// MetricsRegistry holds telemetry counters/gauges/histograms and
	// renders Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// SiteID identifies a registered allocation site (0 = unknown). Obtain
	// one with Runtime.RegisterAllocSite and pass it to Thread.NewAt /
	// NewArrayAt.
	SiteID = heap.SiteID
	// FlightRecorder is the GC flight recorder: a bounded ring of recent
	// collection cycles plus recent violations, dumpable as a forensic
	// bundle. Obtain it with Runtime.Flight() on a flight-enabled runtime.
	FlightRecorder = flight.Recorder
	// FlightBundle is a captured forensic bundle.
	FlightBundle = flight.Bundle
	// FlightCycle is one recorded collection cycle in a bundle.
	FlightCycle = flight.Cycle
	// ViolationRecord is one violation as retained by the flight recorder.
	ViolationRecord = flight.ViolationRecord
	// SiteSample is one (allocation site, type) group of a bundle's heap
	// profile.
	SiteSample = flight.SiteSample
	// AssertCost is one assertion kind's attributed GC-time cost (check
	// count plus slow-path nanoseconds) on a Collection, a GCEvent, or a
	// flight-recorder cycle. Populated with Options.Telemetry.
	AssertCost = collector.AssertCost
	// GCTrigger explains why a collection ran: the human-readable reason,
	// heap occupancy and allocation-rate EWMA at the trigger, and the
	// dominant allocating thread/site. Stamped on every Collection when
	// Options.Telemetry is set.
	GCTrigger = collector.Trigger
	// PressureStats is the mutator-side heap-pressure snapshot returned by
	// Runtime.Pressure: allocation-rate EWMA, the heap-occupancy timeline,
	// and per-thread allocation totals.
	PressureStats = rt.PressureStats
	// ThreadAllocStats is one thread's allocation totals in PressureStats.
	ThreadAllocStats = rt.ThreadAllocStats
	// OccupancySample is one point of PressureStats' occupancy timeline.
	OccupancySample = rt.OccupancySample
	// ThreadAlloc is per-thread allocation activity within a GCEvent.
	ThreadAlloc = telemetry.ThreadAlloc
	// TypeProfile is one type's live-heap footprint, a row of
	// Runtime.HeapProfile.
	TypeProfile = rt.TypeProfile
)

// Collection reasons recorded by the runtime.
const (
	// ReasonAllocFailure labels collections triggered by heap exhaustion.
	ReasonAllocFailure = collector.ReasonAllocFailure
	// ReasonForced labels explicit Collect calls.
	ReasonForced = collector.ReasonForced
)

// Nil is the null reference.
const Nil = heap.Nil

// Assertion kinds.
const (
	KindDead              = core.KindDead
	KindInstances         = core.KindInstances
	KindUnshared          = core.KindUnshared
	KindOwnedBy           = core.KindOwnedBy
	KindImproperOwnership = core.KindImproperOwnership
)

// Reactions.
const (
	// ReactLog logs the violation and continues (the default).
	ReactLog = core.ReactLog
	// ReactHalt panics with *HaltError on the first violation.
	ReactHalt = core.ReactHalt
	// ReactForce forces the assertion true where possible: for lifetime
	// assertions the collector severs every incoming reference so the
	// object is reclaimed in the same cycle.
	ReactForce = core.ReactForce
)

// Builtin array types.
const (
	// TRefArray is the builtin reference-array type.
	TRefArray = heap.TRefArray
	// TWordArray is the builtin scalar-array type.
	TWordArray = heap.TWordArray
)

// NewWriterReporter returns a Reporter that prints each violation to w in
// the paper's Figure 1 format.
func NewWriterReporter(w io.Writer) Reporter { return core.NewWriterReporter(w) }

// Runtime is a managed runtime with GC assertions. All methods of the
// embedded runtime (thread and global management, Collect, Define,
// assertion registration) are part of the public API.
type Runtime struct {
	*rt.Runtime
}

// New creates a runtime.
func New(opts Options) *Runtime { return &Runtime{rt.New(opts)} }

// WriteFlightBundle dumps a flight-recorder forensic bundle to w: the
// retained cycle timeline, the retained violations, and a pprof-format
// heap profile of the live heap grouped by (allocation site, type). The
// bundle's heap profile walks the managed heap, so call it while the
// runtime is quiescent. trigger labels what prompted the dump (shows up in
// the bundle header; "manual" is a fine default). It panics when the
// runtime was created without Options.FlightRecorder.
func (r *Runtime) WriteFlightBundle(w io.Writer, trigger string) error {
	fr := r.Flight()
	if fr == nil {
		panic("gcassert: WriteFlightBundle requires Options.FlightRecorder")
	}
	return fr.WriteBundle(w, trigger)
}

// ReadFlightBundle parses a bundle written by WriteFlightBundle (or the
// /debug/gcassert/fr endpoint, or a violation-triggered dump).
func ReadFlightBundle(rd io.Reader) (FlightBundle, error) { return flight.ReadBundle(rd) }

// ParseHeapProfile decodes a bundle's embedded pprof heap profile.
func ParseHeapProfile(data []byte) (*flight.Profile, error) { return flight.ParseProfile(data) }

// GetRef loads the reference field at slot of the object at a.
func (r *Runtime) GetRef(a Ref, slot int) Ref { return r.Space().GetRef(a, slot) }

// SetRef stores v into the reference field at slot of the object at a.
func (r *Runtime) SetRef(a Ref, slot int, v Ref) { r.Space().SetRef(a, slot, v) }

// GetScalar loads the scalar field at slot of the object at a.
func (r *Runtime) GetScalar(a Ref, slot int) uint64 { return r.Space().GetScalar(a, slot) }

// SetScalar stores v into the scalar field at slot of the object at a.
func (r *Runtime) SetScalar(a Ref, slot int, v uint64) { r.Space().SetScalar(a, slot, v) }

// RefAt loads element i of the reference array at a.
func (r *Runtime) RefAt(a Ref, i int) Ref { return r.Space().RefAt(a, i) }

// SetRefAt stores v into element i of the reference array at a.
func (r *Runtime) SetRefAt(a Ref, i int, v Ref) { r.Space().SetRefAt(a, i, v) }

// WordAt loads element i of the scalar array at a.
func (r *Runtime) WordAt(a Ref, i int) uint64 { return r.Space().WordAt(a, i) }

// SetWordAt stores v into element i of the scalar array at a.
func (r *Runtime) SetWordAt(a Ref, i int, v uint64) { r.Space().SetWordAt(a, i, v) }

// TypeName returns the type name of the object at a.
func (r *Runtime) TypeName(a Ref) string { return r.Space().TypeName(a) }

// ArrayLen returns the length of the array at a.
func (r *Runtime) ArrayLen(a Ref) int { return r.Space().ArrayLen(a) }

// FieldIndex resolves a field name of type t to its slot index.
func (r *Runtime) FieldIndex(t TypeID, name string) int {
	return r.Registry().Info(t).FieldIndex(name)
}

// GCStats returns cumulative collector statistics.
func (r *Runtime) GCStats() GCStats { return r.Collector().Stats() }

// AssertionStats returns the assertion engine's counters (zero value when
// infrastructure mode is off).
func (r *Runtime) AssertionStats() AssertStats {
	if r.Engine() == nil {
		return AssertStats{}
	}
	return r.Engine().Stats()
}

// HeapStats returns allocation statistics.
func (r *Runtime) HeapStats() HeapStats { return r.Space().Stats() }

// LiveInstances returns the live-instance count of t observed at the most
// recent collection (only for types under AssertInstances tracking).
func (r *Runtime) LiveInstances(t TypeID) (int64, bool) {
	if r.Engine() == nil {
		return 0, false
	}
	return r.Engine().LiveInstances(t)
}
