// Package flight is the GC flight recorder: an always-on bounded ring of
// recent collection cycles — phase timings, per-kind assertion activity,
// census deltas — plus a ring of recent assertion violations, dumpable at
// any moment as a self-contained forensic bundle. The bundle is a JSON
// document carrying the cycle timeline, the violation log, and a heap
// profile in pprof protobuf format (allocation site → live objects/bytes)
// that `go tool pprof` consumes directly.
//
// The recorder answers the question the event trace and the census cannot:
// when an assertion fires in production, what did the *last N collections*
// look like, and who allocated the objects that are still alive? Aviation
// flight recorders are cheap to run and priceless after a crash; this is
// the same trade for the GC.
//
// Concurrency: the Observer half and RecordViolation run inside
// stop-the-world collections on the runtime's goroutine; the rings are
// mutex-guarded so HTTP handlers and signal-triggered dumps may read a
// Bundle while the workload runs.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heapdump"
	"gcassert/internal/version"
)

// PhaseSpan is one GC phase of one recorded cycle.
type PhaseSpan struct {
	Phase string `json:"phase"`
	DurNs int64  `json:"dur_ns"`
}

// KindDelta is one assertion kind's activity during one recorded cycle.
type KindDelta struct {
	Kind       string `json:"kind"`
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// CostRow is one assertion kind's attributed cost during one recorded
// cycle (present only on Infrastructure runtimes with telemetry on).
type CostRow struct {
	Kind   string `json:"kind"`
	Checks uint64 `json:"checks"`
	Ns     int64  `json:"ns"`
}

// TypeDelta is one type's live-census change across one recorded cycle,
// relative to the previous recorded collection. Negative values mean
// the type shrank.
type TypeDelta struct {
	TypeName string `json:"type_name"`
	Objects  int64  `json:"objects"`
	Words    int64  `json:"words"`
}

// Cycle is one recorded collection.
type Cycle struct {
	GC            uint64      `json:"gc"`
	Reason        string      `json:"reason"`
	StartUnixNs   int64       `json:"start_unix_ns"`
	TotalNs       int64       `json:"total_ns"`
	Phases        []PhaseSpan `json:"phases,omitempty"`
	RootsScanned  int         `json:"roots_scanned"`
	ObjectsMarked int         `json:"objects_marked"`
	ObjectsFreed  int         `json:"objects_freed"`
	ObjectsLive   int         `json:"objects_live"`
	WordsFreed    int         `json:"words_freed"`
	Kinds         []KindDelta `json:"kinds,omitempty"`
	CensusDelta   []TypeDelta `json:"census_delta,omitempty"`
	// Trigger explanation and per-kind cost attribution, stamped when the
	// runtime runs with Telemetry. Additive omitempty fields: schema
	// version 1 bundles without them parse unchanged.
	Trigger      string    `json:"trigger,omitempty"`
	OccupancyPct float64   `json:"occupancy_pct,omitempty"`
	AssertCost   []CostRow `json:"assert_cost,omitempty"`
}

// ViolationRecord is one assertion violation as the recorder retains it.
type ViolationRecord struct {
	GC       uint64   `json:"gc"`
	Kind     string   `json:"kind"`
	TypeName string   `json:"type_name"`
	Site     string   `json:"site,omitempty"`
	Root     string   `json:"root,omitempty"`
	Path     []string `json:"path,omitempty"`
	Report   string   `json:"report"`
	UnixNs   int64    `json:"unix_ns"`
}

// Bundle is the self-contained forensic dump: everything the recorder holds
// at one instant. HeapProfile, when present, is a gzipped pprof protobuf
// (see EncodeHeapProfile); JSON encoding base64s it, so a bundle survives
// any text transport intact.
type Bundle struct {
	SchemaVersion  int    `json:"schema_version"`
	CapturedUnixNs int64  `json:"captured_unix_ns"`
	Trigger        string `json:"trigger"`
	// Instance identifies who captured the bundle (instance ID, host, PID,
	// build). Added in schema version 2; bundles from version-1 writers
	// parse with Instance nil.
	Instance        *version.Identity `json:"instance,omitempty"`
	TotalCycles     uint64            `json:"total_cycles"`
	Cycles          []Cycle           `json:"cycles"`
	TotalViolations uint64            `json:"total_violations"`
	Violations      []ViolationRecord `json:"violations"`
	HeapProfile     []byte            `json:"heap_profile_pprof,omitempty"`
}

// SchemaVersion is the bundle format version written by this package.
// Version 2 added the Instance identity stamp; the additions are purely
// additive, so readers accept every version in [MinSchemaVersion,
// SchemaVersion].
const SchemaVersion = 2

// MinSchemaVersion is the oldest bundle format this package still reads.
const MinSchemaVersion = 1

// Config configures a Recorder.
type Config struct {
	// Cycles bounds the cycle ring (default 64).
	Cycles int
	// Violations bounds the violation ring (default 32).
	Violations int
}

// Recorder is the flight recorder. It implements collector.Observer for the
// cycle ring; violations arrive through RecordViolation (the runtime tees
// its reporter chain into it).
type Recorder struct {
	// identity, when set, stamps captured bundles (schema v2).
	identity *version.Identity

	// Sources, installed once at wiring time (before the first collection).
	activityFn func() [core.NumKinds]core.KindActivity
	censusFn   func() (heapdump.Snapshot, bool)
	profileFn  func() []SiteSample
	dumpFn     func() (io.WriteCloser, error)

	// Cross-cycle state; touched only inside stop-the-world collections on
	// the runtime's goroutine.
	prevTypes map[string]prevCensus
	dumpedGC  uint64
	dumpedAny bool

	// dumpReq is the deferred-dump latch: RequestDump (any goroutine, e.g. a
	// signal handler) sets it, and GCEnd honors it once the heap is
	// consistent again.
	dumpReq atomic.Bool

	mu      sync.Mutex
	cycles  []Cycle
	head    int
	total   uint64
	viols   []ViolationRecord
	vhead   int
	vtotal  uint64
	dumps   uint64
	dumpErr error
}

type prevCensus struct {
	objects uint64
	words   uint64
}

var _ collector.Observer = (*Recorder)(nil)

// New creates a recorder per cfg.
func New(cfg Config) *Recorder {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 64
	}
	if cfg.Violations <= 0 {
		cfg.Violations = 32
	}
	return &Recorder{
		cycles: make([]Cycle, 0, cfg.Cycles),
		viols:  make([]ViolationRecord, 0, cfg.Violations),
	}
}

// SetIdentity installs the instance identity stamped on captured bundles.
// Install at wiring time, before any bundle is captured.
func (r *Recorder) SetIdentity(id version.Identity) { r.identity = &id }

// SetActivitySource installs the source of the per-kind assertion activity
// of the collection that just ended (the engine's LastCycle). Install before
// the first collection.
func (r *Recorder) SetActivitySource(fn func() [core.NumKinds]core.KindActivity) { r.activityFn = fn }

// SetCensusSource installs the census source used to compute per-type
// census deltas; the source must already hold the current cycle's snapshot
// when the recorder's GCEnd runs (the runtime orders its observers so).
func (r *Recorder) SetCensusSource(fn func() (heapdump.Snapshot, bool)) { r.censusFn = fn }

// SetProfileSource installs the live-heap profile source used for bundle
// heap profiles. The source walks the managed heap, so it must only run
// while the heap is consistent: between collections, or during a
// stop-the-world pause before the sweep (the violation-triggered dump path,
// where the heap is frozen mid-mark and every object — including the
// offender — is still present).
func (r *Recorder) SetProfileSource(fn func() []SiteSample) { r.profileFn = fn }

// SetDumpSink arms violation-triggered dumps: on the first violation of
// each collection cycle the recorder opens the sink and writes a bundle
// (trigger "violation") to it. Errors are retained for Stats, never
// propagated into the collection.
func (r *Recorder) SetDumpSink(fn func() (io.WriteCloser, error)) { r.dumpFn = fn }

// GCBegin implements collector.Observer; the recorder reads the completed
// record in GCEnd.
func (r *Recorder) GCBegin(*collector.Collection) {}

// GCEnd implements collector.Observer: fold the completed collection into
// the cycle ring. Only kinds with activity get a row.
func (r *Recorder) GCEnd(col *collector.Collection) {
	cy := Cycle{
		GC:            col.Seq,
		Reason:        string(col.Reason),
		StartUnixNs:   col.Start.UnixNano(),
		TotalNs:       int64(col.TotalTime),
		Phases:        make([]PhaseSpan, 0, 3),
		RootsScanned:  col.RootsScanned,
		ObjectsMarked: col.ObjectsMarked,
		ObjectsFreed:  col.ObjectsFreed,
		ObjectsLive:   col.ObjectsLive,
		WordsFreed:    col.WordsFreed,
	}
	for p := collector.PhaseOwnership; p <= collector.PhaseSweep; p++ {
		if _, d, ok := col.PhaseSpan(p); ok {
			cy.Phases = append(cy.Phases, PhaseSpan{Phase: p.String(), DurNs: int64(d)})
		}
	}
	if r.activityFn != nil {
		for k, a := range r.activityFn() {
			if a.Checks != 0 || a.Violations != 0 {
				cy.Kinds = append(cy.Kinds, KindDelta{Kind: core.Kind(k).String(), Checks: a.Checks, Violations: a.Violations})
			}
		}
	}
	if col.Trigger.Why != "" {
		cy.Trigger = col.Trigger.Why
		cy.OccupancyPct = col.Trigger.OccupancyPct
	}
	if len(col.AssertCost) > 0 {
		cy.AssertCost = make([]CostRow, len(col.AssertCost))
		for i, c := range col.AssertCost {
			cy.AssertCost[i] = CostRow{Kind: c.Kind, Checks: c.Checks, Ns: c.Ns}
		}
	}
	if r.censusFn != nil {
		if snap, ok := r.censusFn(); ok && snap.GC == col.Seq {
			cy.CensusDelta = r.censusDelta(&snap)
		}
	}
	r.mu.Lock()
	if len(r.cycles) < cap(r.cycles) {
		r.cycles = append(r.cycles, cy)
	} else {
		r.cycles[r.head] = cy
		r.head = (r.head + 1) % len(r.cycles)
	}
	r.total++
	r.mu.Unlock()
	if r.dumpReq.Swap(false) && r.dumpFn != nil {
		r.dump("signal")
	}
}

// RequestDump asks for a one-shot bundle dump (trigger "signal") at the end
// of the next collection, when the heap is consistent enough for the profile
// walk. Safe to call from any goroutine — this is the SIGQUIT-style hook:
// the signal handler requests, the collector delivers. A no-op until a dump
// sink is armed.
func (r *Recorder) RequestDump() { r.dumpReq.Store(true) }

// censusDelta diffs the snapshot against the previously recorded one and
// advances the baseline. Types absent from the new snapshot but present
// before show up as pure shrinkage.
func (r *Recorder) censusDelta(snap *heapdump.Snapshot) []TypeDelta {
	next := make(map[string]prevCensus, len(snap.Types))
	var out []TypeDelta
	for i := range snap.Types {
		row := &snap.Types[i]
		next[row.TypeName] = prevCensus{objects: row.Objects, words: row.Words}
		prev := r.prevTypes[row.TypeName]
		if d := (TypeDelta{
			TypeName: row.TypeName,
			Objects:  int64(row.Objects) - int64(prev.objects),
			Words:    int64(row.Words) - int64(prev.words),
		}); d.Objects != 0 || d.Words != 0 {
			out = append(out, d)
		}
	}
	for name, prev := range r.prevTypes {
		if _, ok := next[name]; !ok {
			out = append(out, TypeDelta{TypeName: name, Objects: -int64(prev.objects), Words: -int64(prev.words)})
		}
	}
	r.prevTypes = next
	sortDeltas(out)
	return out
}

// sortDeltas orders deltas by absolute word growth descending, name
// ascending on ties (insertion sort; live-type counts are small).
func sortDeltas(d []TypeDelta) {
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for i := 1; i < len(d); i++ {
		for j := i; j > 0; j-- {
			a, b := &d[j], &d[j-1]
			if abs(a.Words) > abs(b.Words) || (abs(a.Words) == abs(b.Words) && a.TypeName < b.TypeName) {
				d[j], d[j-1] = d[j-1], d[j]
			} else {
				break
			}
		}
	}
}

// RecordViolation appends a violation to the ring and, when a dump sink is
// armed, writes a violation-triggered bundle — at most one per collection
// cycle, on the cycle's first violation, while the world is still stopped
// and the offending object still live (so the heap profile includes it).
func (r *Recorder) RecordViolation(v ViolationRecord) {
	if v.UnixNs == 0 {
		v.UnixNs = time.Now().UnixNano()
	}
	r.mu.Lock()
	if len(r.viols) < cap(r.viols) {
		r.viols = append(r.viols, v)
	} else {
		r.viols[r.vhead] = v
		r.vhead = (r.vhead + 1) % len(r.viols)
	}
	r.vtotal++
	r.mu.Unlock()
	if r.dumpFn == nil || (r.dumpedAny && r.dumpedGC == v.GC) {
		return
	}
	r.dumpedAny = true
	r.dumpedGC = v.GC
	r.dump("violation")
}

// dump opens the armed sink and writes a bundle, retaining any failure for
// Stats; errors never propagate into the collection.
func (r *Recorder) dump(trigger string) {
	w, err := r.dumpFn()
	if err == nil {
		err = r.WriteBundle(w, trigger)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	r.mu.Lock()
	if err != nil {
		r.dumpErr = err
	} else {
		r.dumps++
	}
	r.mu.Unlock()
}

// Stats summarizes the recorder's activity.
type Stats struct {
	// CyclesRecorded and ViolationsRecorded count everything ever seen
	// (retention is bounded by the rings).
	CyclesRecorded     uint64
	ViolationsRecorded uint64
	// Dumps counts completed violation-triggered dumps; LastDumpErr is the
	// most recent dump failure, if any.
	Dumps       uint64
	LastDumpErr error
}

// Stats returns the recorder's activity summary.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		CyclesRecorded:     r.total,
		ViolationsRecorded: r.vtotal,
		Dumps:              r.dumps,
		LastDumpErr:        r.dumpErr,
	}
}

// Cycles returns the retained cycles, oldest first.
func (r *Recorder) Cycles() []Cycle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cyclesLocked()
}

func (r *Recorder) cyclesLocked() []Cycle {
	n := len(r.cycles)
	out := make([]Cycle, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.cycles[(r.head+i)%n])
	}
	return out
}

// Violations returns the retained violations, oldest first.
func (r *Recorder) Violations() []ViolationRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.violationsLocked()
}

func (r *Recorder) violationsLocked() []ViolationRecord {
	n := len(r.viols)
	out := make([]ViolationRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.viols[(r.vhead+i)%n])
	}
	return out
}

// Bundle captures a forensic bundle. trigger labels what prompted the dump
// ("violation", "http", "signal", "final", ...). The heap profile is
// included when a profile source is installed; its capture time doubles as
// the profile's time_nanos.
func (r *Recorder) Bundle(trigger string) Bundle {
	now := time.Now().UnixNano()
	var prof []byte
	if r.profileFn != nil {
		prof = EncodeHeapProfile(r.profileFn(), now)
	}
	r.mu.Lock()
	b := Bundle{
		SchemaVersion:   SchemaVersion,
		CapturedUnixNs:  now,
		Trigger:         trigger,
		Instance:        r.identity,
		TotalCycles:     r.total,
		Cycles:          r.cyclesLocked(),
		TotalViolations: r.vtotal,
		Violations:      r.violationsLocked(),
		HeapProfile:     prof,
	}
	r.mu.Unlock()
	return b
}

// WriteBundle captures a bundle and writes it as indented JSON.
func (r *Recorder) WriteBundle(w io.Writer, trigger string) error {
	b := r.Bundle(trigger)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&b)
}

// ReadBundle parses a bundle previously written by WriteBundle.
func ReadBundle(rd io.Reader) (Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&b); err != nil {
		return Bundle{}, fmt.Errorf("flight: parsing bundle: %w", err)
	}
	if b.SchemaVersion < MinSchemaVersion || b.SchemaVersion > SchemaVersion {
		return Bundle{}, fmt.Errorf(
			"flight: bundle schema version %d not supported (this build reads versions %d through %d); re-capture the bundle or use a matching gcfr build",
			b.SchemaVersion, MinSchemaVersion, SchemaVersion)
	}
	return b, nil
}
