package gcassert

import (
	"io"

	"gcassert/internal/collector"
	"gcassert/internal/heapdump"
)

// Heap introspection: the observability counterpart to assertions. Where an
// assertion checks a property the programmer already suspects, introspection
// answers the open-ended question "what is my heap doing?" — a per-type
// census taken at the end of every collection from the sweep's survivors,
// snapshot diffing that ranks leak suspects Cork-style by per-type growth
// across collections, and on-demand dominator/retained-size analysis.
// Enable it with Options.Introspection.

// Re-exported introspection types (aliases, no conversion needed).
type (
	// CensusSnapshot is the per-type census of one collection.
	CensusSnapshot = heapdump.Snapshot
	// TypeCensus is one type's row within a CensusSnapshot.
	TypeCensus = heapdump.TypeCensus
	// LeakSuspect is one type ranked by its live-volume growth across
	// recent collections.
	LeakSuspect = heapdump.Suspect
	// DominatorTree is the dominator tree of a heap graph capture, with
	// per-object retained sizes.
	DominatorTree = heapdump.DomTree
	// Retainer is one entry of DominatorTree.TopRetainers.
	Retainer = heapdump.Retainer
	// TypeRetained is one entry of DominatorTree.TypeRetainers.
	TypeRetained = heapdump.TypeRetained
	// HeapGraph is an on-demand capture of the reachable object graph.
	HeapGraph = collector.Graph
)

// mustCensus returns the census or panics with a helpful message.
func (r *Runtime) mustCensus(op string) *heapdump.Census {
	c := r.Census()
	if c == nil {
		panic("gcassert: " + op + " requires Options.Introspection")
	}
	return c
}

// CensusSnapshots returns the retained per-GC census snapshots, oldest
// first. Safe to call from other goroutines while the workload runs.
func (r *Runtime) CensusSnapshots() []CensusSnapshot {
	return r.mustCensus("CensusSnapshots").Snapshots()
}

// LatestCensus returns the most recent census snapshot, if any collection
// has happened yet.
func (r *Runtime) LatestCensus() (CensusSnapshot, bool) {
	return r.mustCensus("LatestCensus").Latest()
}

// WriteCensusJSON writes the last n census snapshots (n <= 0: all retained)
// as JSON — the same document /debug/gcassert/census serves.
func (r *Runtime) WriteCensusJSON(w io.Writer, n int) error {
	return r.mustCensus("WriteCensusJSON").WriteJSON(w, n)
}

// WriteLeaksJSON ranks leak suspects over the last `window` snapshots
// (0 = all retained) and writes the top `top` as JSON — the same document
// /debug/gcassert/leaks serves.
func (r *Runtime) WriteLeaksJSON(w io.Writer, window, top int) error {
	return r.mustCensus("WriteLeaksJSON").WriteSuspectsJSON(w, window, top)
}

// LeakReport is a LeakSuspect augmented with a sampled instance and the
// root-to-object path keeping it alive — the paper's violation-report form
// applied to a leak candidate, so the report names not just *what* grows but
// *why it is still reachable*.
type LeakReport struct {
	LeakSuspect
	// Sample is a currently-live instance of the suspect type (Nil when no
	// reachable instance was found, e.g. the type died out after ranking).
	Sample Ref `json:"sample"`
	// Root and Path locate Sample from the root set, like Violation.Path.
	Root string     `json:"root,omitempty"`
	Path []PathStep `json:"path,omitempty"`
}

// LeakSuspects diffs the last `window` census snapshots (0 = all retained),
// ranks the top growing types, and augments each with a sampled reachable
// instance and its root path. The path sampling walks the heap (a probe), so
// unlike the raw census reads this must run while the runtime is quiescent.
func (r *Runtime) LeakSuspects(window, top int) []LeakReport {
	suspects := r.mustCensus("LeakSuspects").Suspects(window, top)
	reports := make([]LeakReport, 0, len(suspects))
	for _, s := range suspects {
		rep := LeakReport{LeakSuspect: s}
		rep.Sample, rep.Path, rep.Root = r.samplePath(s.Type)
		reports = append(reports, rep)
	}
	return reports
}

// samplePath finds a reachable instance of t and its root path. It tries a
// bounded number of instances: objects allocated since the last collection
// may be unreachable already, and one dead sample must not lose the report.
func (r *Runtime) samplePath(t TypeID) (sample Ref, path []PathStep, root string) {
	const maxTries = 16
	space := r.Space()
	tries := 0
	space.ForEachObject(func(a Ref) bool {
		if space.TypeOf(a) != t {
			return true
		}
		tries++
		if p, rd, ok := r.PathTo(a); ok {
			sample, path, root = a, p, rd
			return false
		}
		return tries < maxTries
	})
	return sample, path, root
}

// CaptureGraph snapshots the reachable object graph right now (a full heap
// walk; quiescent callers only). The capture feeds Dominators and can be
// reused across several analyses of the same moment.
func (r *Runtime) CaptureGraph() *HeapGraph {
	return r.Collector().CaptureGraph()
}

// Dominators captures the reachable graph and computes its dominator tree
// with retained sizes. Cost is a full heap walk plus a few linear passes —
// the deliberate on-demand counterpart to the per-GC census.
func (r *Runtime) Dominators() *DominatorTree {
	g := r.CaptureGraph()
	return heapdump.Dominators(g, r.Space())
}
