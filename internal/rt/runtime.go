// Package rt is the managed runtime tying the heap, the collector and the
// assertion engine together: it owns the root set (thread frames and
// globals), the allocation path (with collect-on-exhaustion), and the
// programmer-facing assertion entry points.
//
// The runtime models the paper's host VM at the level the assertions need:
// mutator "threads" are cooperative contexts whose frames are scanned as
// roots during stop-the-world collections. A Runtime and all of its threads
// must be used from a single goroutine; collections happen synchronously
// inside allocation or Collect calls, which is the stop-the-world discipline
// the paper's collector relies on.
package rt

import (
	"fmt"
	"io"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/fleet"
	"gcassert/internal/flight"
	"gcassert/internal/heap"
	"gcassert/internal/heapdump"
	"gcassert/internal/telemetry"
	"gcassert/internal/version"
)

// Config configures a Runtime.
type Config struct {
	// HeapBytes is the managed heap size. The collector runs when allocation
	// fails; like the paper's methodology, benchmarks size this at a small
	// multiple of the live set. Default 64 MiB.
	HeapBytes int
	// Infrastructure enables the GC-assertions infrastructure in the
	// collector (the paper's "Infrastructure" configuration). Without it the
	// collector runs the unmodified Base trace and assertions are
	// unavailable.
	Infrastructure bool
	// Reporter receives violations (default: a writer to Stderr is NOT
	// installed; violations are recorded only if a reporter is given).
	Reporter core.Reporter
	// Policy selects per-kind reactions (default: log and continue).
	Policy core.Policy
	// Registry supplies a pre-built type registry; nil creates a fresh one.
	Registry *heap.Registry
	// LogWriter, if non-nil, receives a WriterReporter in addition to
	// Reporter.
	LogWriter io.Writer
	// Telemetry enables the observability layer: a structured GC event
	// trace, a metrics registry with a pause histogram, and (in
	// Infrastructure mode) a violation log, all reachable through
	// Runtime.Telemetry(). Disabled, the collector pays one nil-check per
	// phase and the mark hot path is untouched.
	Telemetry bool
	// TelemetryRingSize bounds the retained GC event trace (default 1024).
	TelemetryRingSize int
	// ProvenanceSample enables allocation-site provenance: 0 (the default)
	// disables it, 1 records every sited allocation (exhaustive), N > 1
	// records every Nth (sampled). With provenance on, violations report the
	// offending object's allocation site, the census and leak ranking group
	// by (type, site), and the flight recorder's heap profile resolves to
	// sites. Disabled, the allocation path pays one nil-check on sited
	// allocations and nothing on plain ones.
	ProvenanceSample int
	// FlightRecorder enables the GC flight recorder: an always-on bounded
	// ring of recent collection cycles (phase timings, census deltas,
	// assertion activity) plus recent violations, dumpable on demand as a
	// self-contained forensic bundle with a pprof-format heap profile. See
	// Runtime.Flight.
	FlightRecorder bool
	// FlightCycles bounds the flight recorder's cycle ring (default 64).
	FlightCycles int
	// CostAttribution enables the cost-attribution and heap-pressure layer:
	// per-assertion-kind time/work accounting on every collection
	// (Collection.AssertCost), mutator-side pressure stats (per-thread
	// allocation counters, allocation-rate EWMA, occupancy timeline,
	// Runtime.Pressure), and a trigger explainer stamping every collection
	// with why it ran (Collection.Trigger). Disabled, the mark hot path is
	// untouched, the allocation path pays one nil-check, and collections pay
	// one nil-check for the explainer hook.
	CostAttribution bool
	// InstanceID names this runtime instance in exported artifacts (flight
	// bundles, census documents, fleet envelopes). Empty generates a
	// host-pid-random ID, which is right for fleets of identical replicas.
	InstanceID string
	// Tenant, when non-empty, marks this runtime as one named tenant of a
	// multi-runtime host: the effective instance ID becomes
	// "InstanceID/Tenant" (composed via version.Identity.Sub), so many
	// tenants sharing one configured InstanceID export to the fleet
	// collector as distinct instances instead of colliding.
	Tenant string
	// FleetURL, when non-empty, enables the fleet exporter: census
	// envelopes (and, on violation, flight bundles) are content-addressed
	// and shipped to the gcfleet collector at this base URL from a
	// background goroutine. Works best with Introspection (census) and
	// FlightRecorder (violation forensics); without both there is nothing
	// to ship.
	FleetURL string
	// FleetEvery exports a census envelope every N collections
	// (default 1 — the collector dedupes identical content, so steady-state
	// replicas are nearly free to report).
	FleetEvery int
	// Introspection enables the heap-introspection layer: a per-type census
	// taken during every collection's mark phase (one callback per
	// marked object), snapshot diffing with leak-suspect ranking, and
	// on-demand dominator/retained-size analysis, reachable through
	// Runtime.Census(). Disabled, the mark hot path pays one nil-check per
	// marked object and nothing else.
	Introspection bool
	// CensusRingSize bounds the retained census snapshots (default 64).
	CensusRingSize int
}

// Runtime is a managed runtime instance.
type Runtime struct {
	reg    *heap.Registry
	space  *heap.Space
	engine *core.Engine
	gc     *collector.Collector

	threads  []*Thread
	nextTID  uint64
	globals  []heap.Addr
	globNams []string

	tel      *telemetry.Tracer
	census   *heapdump.Census
	flight   *flight.Recorder
	pressure *pressure

	identity version.Identity
	fleetx   *fleet.Exporter
}

// New creates a runtime per cfg.
func New(cfg Config) *Runtime {
	if cfg.HeapBytes <= 0 {
		cfg.HeapBytes = 64 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = heap.NewRegistry()
	}
	r := &Runtime{reg: reg, space: heap.NewSpace(reg, cfg.HeapBytes)}
	r.identity = version.NewIdentity(cfg.InstanceID)
	if cfg.Tenant != "" {
		r.identity = r.identity.Sub(cfg.Tenant)
	}
	if cfg.ProvenanceSample > 0 {
		r.space.EnableProvenance(cfg.ProvenanceSample)
	}
	if cfg.FlightRecorder {
		r.flight = flight.New(flight.Config{Cycles: cfg.FlightCycles})
	}
	if cfg.Telemetry {
		r.tel = telemetry.New(telemetry.Config{RingSize: cfg.TelemetryRingSize})
	}
	var hooks collector.Hooks
	if cfg.Infrastructure {
		rep := cfg.Reporter
		if cfg.LogWriter != nil {
			wr := core.NewWriterReporter(cfg.LogWriter)
			if rep != nil {
				rep = core.TeeReporter{rep, wr}
			} else {
				rep = wr
			}
		}
		if r.tel != nil {
			tl := core.FuncReporter(func(v *core.Violation) { r.tel.LogViolation(v.String()) })
			if rep != nil {
				rep = core.TeeReporter{rep, tl}
			} else {
				rep = tl
			}
		}
		if r.flight != nil {
			fl := core.FuncReporter(func(v *core.Violation) { r.flight.RecordViolation(flightViolation(v)) })
			if rep != nil {
				rep = core.TeeReporter{rep, fl}
			} else {
				rep = fl
			}
		}
		if cfg.FleetURL != "" {
			// Latch a violation-triggered export; the exporter (wired as an
			// observer at the end of New) ships census + flight bundle at
			// the end of this collection.
			fv := core.FuncReporter(func(v *core.Violation) {
				if r.fleetx != nil {
					r.fleetx.NoteViolation()
				}
			})
			if rep != nil {
				rep = core.TeeReporter{rep, fv}
			} else {
				rep = fv
			}
		}
		r.engine = core.NewEngine(r.space, rep, cfg.Policy)
		hooks = r.engine
	}
	r.gc = collector.New(r.space, (*rootScanner)(r), hooks, cfg.Infrastructure)
	// Observers run in the order they are added here, and one ordering is
	// load-bearing: census before flight recorder before fleet exporter,
	// because each reads what the one before it recorded for the cycle.
	if r.tel != nil {
		r.observe(newTelemetrySink(r, r.tel))
	}
	if cfg.CostAttribution {
		if r.engine != nil {
			r.engine.EnableCostAttribution()
		}
		r.pressure = newPressure(r)
		r.gc.ExplainTrigger = r.pressure.explain
	}
	if cfg.Introspection {
		r.initIntrospection(cfg)
	}
	if r.flight != nil {
		r.initFlight()
	}
	// Identity stamps for exported artifacts.
	if r.census != nil {
		r.census.SetIdentity(r.identity)
	}
	if r.flight != nil {
		r.flight.SetIdentity(r.identity)
	}
	if r.tel != nil {
		b := r.identity.Build
		r.tel.Registry().Gauge("gcassert_build_info",
			"Build and instance identity of this runtime (value is always 1; the information is in the labels).",
			telemetry.Label{Name: "version", Value: b.Version},
			telemetry.Label{Name: "go_version", Value: b.GoVersion},
			telemetry.Label{Name: "revision", Value: b.VCSRevision},
			telemetry.Label{Name: "instance", Value: r.identity.InstanceID},
		).Set(1)
	}
	if cfg.FleetURL != "" {
		r.initFleet(cfg)
	}
	return r
}

// observe appends o to the collector's observers.
func (r *Runtime) observe(o collector.Observer) {
	if prev := r.gc.Observer; prev != nil {
		o = collector.TeeObserver{prev, o}
	}
	r.gc.Observer = o
}

// Space exposes the heap for field and array access.
func (r *Runtime) Space() *heap.Space { return r.space }

// Registry exposes the type registry.
func (r *Runtime) Registry() *heap.Registry { return r.reg }

// Collector exposes the collector (for stats).
func (r *Runtime) Collector() *collector.Collector { return r.gc }

// Engine exposes the assertion engine, or nil when infrastructure mode is
// off.
func (r *Runtime) Engine() *core.Engine { return r.engine }

// Telemetry exposes the observability layer, or nil when telemetry is off.
func (r *Runtime) Telemetry() *telemetry.Tracer { return r.tel }

// Census exposes the heap-introspection layer, or nil when introspection is
// off.
func (r *Runtime) Census() *heapdump.Census { return r.census }

// Flight exposes the GC flight recorder, or nil when it is off.
func (r *Runtime) Flight() *flight.Recorder { return r.flight }

// RegisterAllocSite registers an allocation-site description and returns
// its SiteID, for use with Thread.NewAt/NewArrayAt. Callers register once
// per callsite and cache the ID. When provenance is disabled it returns the
// unknown site, which sited allocation entry points treat as "record
// nothing" — callers need no mode check of their own.
func (r *Runtime) RegisterAllocSite(desc string) heap.SiteID {
	if p := r.space.Provenance(); p != nil {
		return p.Register(desc)
	}
	return 0
}

// AllocSite returns the recorded allocation site of the object at a: its ID
// and description. Both are zero when provenance is off or the allocation
// was not sampled.
func (r *Runtime) AllocSite(a heap.Addr) (heap.SiteID, string) {
	return r.space.SiteOf(a), r.space.SiteDesc(a)
}

// SetRequestTag names the request the mutator is currently serving; a zero
// tag clears it. Collections that begin while the tag is set carry it on
// their record (Collection.Request) and, as 16 lowercase hex digits, on
// their telemetry event (Event.Request), which is how the gcassertd tracing
// layer parents a GC pause under the exact request span it interrupted: its
// tag is the span ID read as a big-endian uint64, so the event carries the
// span ID's own hex form. Single-goroutine like every other mutator-side
// call; with tracing off it is simply never called.
func (r *Runtime) SetRequestTag(tag uint64) { r.gc.SetRequestTag(tag) }

// Collect forces a collection.
func (r *Runtime) Collect() collector.Collection {
	return r.gc.Collect(collector.ReasonForced)
}

// Define registers a new object type.
func (r *Runtime) Define(name string, fields ...heap.Field) heap.TypeID {
	return r.reg.Define(name, fields...)
}

// NewGlobal allocates a named global root slot and returns its index.
func (r *Runtime) NewGlobal(name string) int {
	r.globals = append(r.globals, heap.Nil)
	r.globNams = append(r.globNams, "global:"+name)
	return len(r.globals) - 1
}

// SetGlobal stores a reference in a global slot. Globals are scanned as
// roots at every collection.
func (r *Runtime) SetGlobal(g int, v heap.Addr) { r.globals[g] = v }

// GetGlobal loads a global slot.
func (r *Runtime) GetGlobal(g int) heap.Addr { return r.globals[g] }

// NewThread creates a mutator context whose frames are scanned as roots.
func (r *Runtime) NewThread(name string) *Thread {
	t := &Thread{rt: r, id: r.nextTID, name: name, locals: name + ".locals"}
	r.nextTID++
	r.threads = append(r.threads, t)
	return t
}

// rootScanner adapts the runtime's globals and thread frames to the
// collector's RootScanner interface.
type rootScanner Runtime

// Roots enumerates every global slot and every slot of every live frame.
func (rs *rootScanner) Roots(yield func(collector.Root)) {
	r := (*Runtime)(rs)
	for i := range r.globals {
		yield(collector.Root{Slot: &r.globals[i], Desc: r.globNams[i]})
	}
	for _, t := range r.threads {
		for _, f := range t.frames {
			for j := range f.slots {
				yield(collector.Root{Slot: &f.slots[j], Desc: f.desc})
			}
		}
	}
}

// RootScanner exposes the runtime's root set (globals plus every thread
// frame) for read-only heap walks such as heap probes.
func (r *Runtime) RootScanner() collector.RootScanner { return (*rootScanner)(r) }

// mustEngine returns the engine or panics with a helpful message.
func (r *Runtime) mustEngine(op string) *core.Engine {
	if r.engine == nil {
		panic(fmt.Sprintf("rt: %s requires Infrastructure mode", op))
	}
	return r.engine
}

// AssertDead asserts the object must be unreachable at the next collection.
func (r *Runtime) AssertDead(a heap.Addr) { r.mustEngine("AssertDead").AssertDead(a) }

// AssertUnshared asserts the object has at most one incoming pointer.
func (r *Runtime) AssertUnshared(a heap.Addr) { r.mustEngine("AssertUnshared").AssertUnshared(a) }

// AssertInstances asserts at most limit live instances of t at each GC.
func (r *Runtime) AssertInstances(t heap.TypeID, limit int64) {
	r.mustEngine("AssertInstances").AssertInstances(t, limit)
}

// AssertOwnedBy asserts ownee must not outlive reachability via owner.
func (r *Runtime) AssertOwnedBy(owner, ownee heap.Addr) {
	r.mustEngine("AssertOwnedBy").AssertOwnedBy(owner, ownee)
}

// OOMError is the panic payload raised when the heap cannot satisfy an
// allocation even after a collection.
type OOMError struct {
	// Type is the type being allocated; Len the array length.
	Type heap.TypeID
	Len  int
	// Live summarizes the heap at failure.
	Live heap.Stats
}

// Error describes the exhaustion.
func (e *OOMError) Error() string {
	return fmt.Sprintf("rt: out of memory allocating type %d (len %d); live: %d objects / %d words",
		e.Type, e.Len, e.Live.LiveObjects, e.Live.LiveWords)
}
