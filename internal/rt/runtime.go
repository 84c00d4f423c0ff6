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

// Config configures a Runtime. The public facade exposes it unchanged as
// gcassert.Options.
//
// Every optional layer is off by default, and an off layer costs nothing:
// no observer in the collector's list, no hook in the mark loop, no host
// allocation per collection. Which layer implies which is decided in New,
// and only there:
//
//   - Telemetry carries cost attribution and the heap-pressure tracker.
//   - FleetURL turns the census (Introspection) on: the census is what the
//     exporter ships.
//   - A layer that feeds another is wired to it when both are on: the
//     census feeds telemetry gauges, the flight recorder and the fleet
//     exporter; the flight recorder feeds violation-triggered fleet exports;
//     with telemetry, TelemetryHandler serves every layer's document over
//     HTTP.
type Config struct {
	// HeapBytes sizes the managed heap (default 64 MiB). The collector runs
	// when allocation fails; like the paper's methodology, benchmarks size
	// this at a small multiple of the live set.
	HeapBytes int
	// Infrastructure enables the GC-assertions infrastructure. Without it
	// the collector runs the unmodified base trace and assertion calls
	// panic — this is the paper's Base configuration, used for overhead
	// measurements.
	Infrastructure bool
	// Reporter receives violations; nil discards them (stats still count).
	Reporter core.Reporter
	// LogWriter, if non-nil, additionally prints violations to this writer
	// in the paper's Figure 1 format.
	LogWriter io.Writer
	// Policy selects per-kind reactions (zero value: log everything).
	Policy core.Policy
	// OnViolation, if non-nil, chooses the reaction per violation at
	// detection time, overriding Policy — the paper's programmatic-
	// reaction interface (§2.6 future work). It runs inside the
	// stop-the-world collection and must not allocate on the managed heap
	// or register assertions. Infrastructure mode only.
	OnViolation func(*core.Violation) core.Reaction
	// Telemetry enables the observability layer: a structured GC event
	// trace, Prometheus metrics with a pause histogram, the violation log
	// and the HTTP surface (Runtime.Telemetry). It carries cost
	// attribution: every collection's assertion work is attributed per
	// kind (Collection.AssertCost; check counts exact, slow-path time
	// measured), and a pressure tracker, first in the collector's observer
	// list, stamps each collection with why it ran (Collection.Trigger:
	// occupancy, allocation-rate EWMA, dominant allocating thread and site)
	// and keeps per-thread allocation totals (Runtime.Pressure). Costs and
	// trigger ride the event stream, /metrics and the /debug/gcassert/live
	// SSE feed that cmd/gctop renders. Works in every mode, including Base.
	// Disabled, the mark loop is the same, the allocation path pays one
	// nil-check, and collections gain zero allocations.
	Telemetry bool
	// TelemetryRingSize bounds the retained GC event trace (default 1024
	// events; older events are evicted but cumulative metrics keep
	// counting).
	TelemetryRingSize int
	// ProvenanceSample enables allocation-site provenance: 0 (the default)
	// disables it, 1 records every sited allocation, N > 1 records one in N.
	// With provenance on, violations report the offending object's
	// allocation site, the census and leak ranking group by (type, site),
	// and flight-recorder bundles carry a site-resolved pprof heap profile.
	// Sites are registered with Runtime.RegisterAllocSite and recorded by
	// Thread.NewAt / NewArrayAt; plain New/NewArray allocations group under
	// the unknown site. Disabled, the plain allocation path is untouched and
	// sited entry points cost one comparison.
	ProvenanceSample int
	// FlightRecorder enables the GC flight recorder: an always-on ring of
	// the last 64 collection cycles (phase timings, per-kind assertion
	// activity, census deltas) and recent violations, dumpable on demand —
	// Runtime.WriteFlightBundle, or /debug/gcassert/fr with Telemetry — or
	// automatically on violation, as a self-contained JSON bundle embedding
	// a pprof-format heap profile. See Runtime.Flight.
	FlightRecorder bool
	// InstanceID names this runtime instance in exported artifacts: flight
	// bundles, census documents and fleet envelopes. Empty generates a
	// host-pid-random ID — the right default for fleets of identical
	// replicas, where the content hash (not the name) is the identity.
	InstanceID string
	// Tenant, when non-empty, names this runtime as one tenant of a
	// multi-runtime host (gcassertd): the effective instance ID becomes
	// "InstanceID/Tenant" (version.Identity.Sub), so tenants sharing the
	// host's InstanceID export to the fleet collector as distinct instances
	// instead of colliding.
	Tenant string
	// FleetURL enables the fleet exporter when non-empty: after every
	// collection the census snapshot is sealed into a content-addressed
	// envelope and shipped to the gcfleet collector at this base URL (the
	// collector dedupes identical content, so steady-state replicas are
	// nearly free to report); on a violation a flight-recorder bundle ships
	// too, when FlightRecorder is on. FleetURL turns Introspection on. Sends
	// happen on a background goroutine with a bounded queue, so a slow or
	// absent collector never blocks a collection. With Telemetry,
	// /debug/gcassert/fleet reports exporter status and POST ?export=now
	// ships a census on demand.
	FleetURL string
	// Introspection enables the heap-introspection layer: a per-type live
	// census taken at the end of every collection from the allocation
	// bitmaps (after the sweep every allocated object is a survivor),
	// snapshot diffing with Cork-style leak-suspect ranking, and on-demand
	// dominator / retained-size analysis, reachable through Runtime.Census.
	// Works in every mode, including Base. Disabled, nothing runs and
	// nothing is allocated.
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

// New creates a runtime per cfg. Every rule about which layer implies or
// feeds which lives here.
func New(cfg Config) *Runtime {
	if cfg.HeapBytes <= 0 {
		cfg.HeapBytes = 64 << 20
	}
	reg := heap.NewRegistry()
	r := &Runtime{reg: reg, space: heap.NewSpace(reg, cfg.HeapBytes)}
	r.identity = version.NewIdentity(cfg.InstanceID)
	if cfg.Tenant != "" {
		r.identity = r.identity.Sub(cfg.Tenant)
	}

	// The optional layers. Telemetry carries cost attribution and the
	// pressure tracker; a fleet exporter turns the census on, because the
	// census is what it ships.
	if cfg.ProvenanceSample > 0 {
		r.space.EnableProvenance(cfg.ProvenanceSample)
	}
	if cfg.Telemetry {
		r.tel = telemetry.New(telemetry.Config{RingSize: cfg.TelemetryRingSize})
		r.pressure = newPressure(r)
	}
	if cfg.Introspection || cfg.FleetURL != "" {
		r.census = heapdump.NewCensus(r.space, heapdump.Config{Ring: cfg.CensusRingSize})
		r.census.SetIdentity(r.identity)
	}
	if cfg.FlightRecorder {
		r.flight = flight.New(flight.Config{})
		r.flight.SetIdentity(r.identity)
	}
	if cfg.FleetURL != "" {
		// Network sends happen on the exporter's own goroutine; a dead
		// collector costs the GC nothing.
		r.fleetx = fleet.NewExporter(fleet.ExportConfig{
			URL:      cfg.FleetURL,
			Identity: r.identity,
			Registry: r.reg,
		})
	}

	var hooks collector.Hooks
	if cfg.Infrastructure {
		// Every violation reaches each sink once, in this order.
		var reps core.TeeReporter
		if cfg.Reporter != nil {
			reps = append(reps, cfg.Reporter)
		}
		if cfg.LogWriter != nil {
			reps = append(reps, core.NewWriterReporter(cfg.LogWriter))
		}
		if r.tel != nil {
			reps = append(reps, core.FuncReporter(func(v *core.Violation) { r.tel.LogViolation(v.String()) }))
		}
		if r.flight != nil {
			reps = append(reps, core.FuncReporter(func(v *core.Violation) { r.flight.RecordViolation(flightViolation(v)) }))
		}
		if r.fleetx != nil {
			// Latch a violation-triggered export: the exporter ships census
			// and flight bundle at the end of this collection.
			reps = append(reps, core.FuncReporter(func(*core.Violation) { r.fleetx.NoteViolation() }))
		}
		r.engine = core.NewEngine(r.space, reps, cfg.Policy)
		if cfg.OnViolation != nil {
			r.engine.SetDecider(cfg.OnViolation)
		}
		if r.tel != nil {
			r.engine.EnableCosts()
		}
		hooks = r.engine
	}
	r.gc = collector.New(r.space, (*rootScanner)(r), hooks, cfg.Infrastructure)

	// Which layer feeds which.
	if r.flight != nil {
		if r.engine != nil {
			r.flight.SetActivitySource(r.engine.LastCycle)
		}
		if r.census != nil {
			r.flight.SetCensusSource(r.census.Latest)
		}
		r.flight.SetProfileSource(r.siteProfile)
	}
	if r.fleetx != nil {
		r.fleetx.SetCensusSource(r.census.Latest)
		if r.flight != nil {
			r.fleetx.SetBundleSource(r.flight.Bundle)
		}
	}
	if r.tel != nil {
		// Telemetry mirrors each census into per-type gauges; every other
		// layer's document is served beside its own (TelemetryHandler).
		if r.census != nil {
			r.census.SetOnSnapshot((&censusPublisher{reg: r.tel.Registry()}).publish)
		}
		b := r.identity.Build
		r.tel.Registry().Gauge("gcassert_build_info",
			"Build and instance identity of this runtime (value is always 1; the information is in the labels).",
			telemetry.Label{Name: "version", Value: b.Version},
			telemetry.Label{Name: "go_version", Value: b.GoVersion},
			telemetry.Label{Name: "revision", Value: b.VCSRevision},
			telemetry.Label{Name: "instance", Value: r.identity.InstanceID},
		).Set(1)
	}

	// The collector notifies its observers in this order. The pressure
	// tracker stamps the Trigger every later observer reads; census before
	// flight recorder before fleet exporter, because each reads what the one
	// before it recorded for the cycle.
	var obs []collector.Observer
	if r.pressure != nil {
		obs = append(obs, r.pressure)
	}
	if r.tel != nil {
		obs = append(obs, newTelemetrySink(r, r.tel))
	}
	if r.census != nil {
		obs = append(obs, r.census)
	}
	if r.flight != nil {
		obs = append(obs, r.flight)
	}
	if r.fleetx != nil {
		obs = append(obs, r.fleetx)
	}
	r.gc.Observers = obs
	return r
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
