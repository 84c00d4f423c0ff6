package core

import (
	"runtime"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// preMarkDone hands a collector the engine's hooks minus PreMark, so a
// benchmark can run (and time) the ownership pre-phase itself and then let
// the collector finish the cycle without running the phase twice.
type preMarkDone struct{ *Engine }

func (preMarkDone) PreMark(*collector.Collector) {}

func hostMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkOwnershipPhase measures the ownership pre-phase on the shape the
// repository benchmark's embed-db workload (and the paper's _209_db) gives
// it: one owner, 100 000 ownees reached through one reference array, each
// ownee the head of a five-object record, and a few thousand ownees dropped
// and registered between collections. The timed region is the pre-phase
// alone, so allocs/op is the phase's own host allocations (it must be 0),
// and ns/ownee is directly comparable to the repository benchmark's
// core.ownership_ns_per_ownee. The benchmark also self-asserts that a whole
// steady-state collection with ownership allocates no more on the host than
// the same collector did before the first AssertOwnedBy, so the pruning in
// PostMark and the sweep's clear-on-free are covered too.
func BenchmarkOwnershipPhase(b *testing.B) {
	const (
		ownees = 100_000
		churn  = 3_000
	)
	// One P, as testing.AllocsPerRun does: with more, restarting the world
	// after ReadMemStats can itself allocate and show up in Mallocs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := heap.NewRegistry()
	tDB := reg.Define("Database", heap.Field{Name: "entries", Ref: true})
	tEntry := reg.Define("Entry", heap.Field{Name: "fields", Ref: true}, heap.Field{Name: "key"}, heap.Field{Name: "id"})
	space := heap.NewSpace(reg, 48<<20)
	eng := NewEngine(space, nil, DefaultPolicy())
	roots := &world{} // engine_test.go's harness, used here only as the root scanner
	col := collector.New(space, roots, preMarkDone{eng}, true)

	alloc := func(t heap.TypeID, n int) heap.Addr {
		a, ok := space.Allocate(t, n)
		if !ok {
			b.Fatal("heap exhausted")
		}
		return a
	}
	db := alloc(tDB, 0)
	roots.root(db)
	entries := alloc(heap.TRefArray, ownees)
	space.SetRef(db, 0, entries)
	newEntry := func(slot int) heap.Addr {
		e := alloc(tEntry, 0)
		space.SetRefAt(entries, slot, e)
		fields := alloc(heap.TRefArray, 3)
		space.SetRef(e, 0, fields)
		for i := 0; i < 3; i++ {
			space.SetRefAt(fields, i, alloc(heap.TWordArray, 4+(slot+i)%8))
		}
		return e
	}
	for i := 0; i < ownees; i++ {
		newEntry(i)
	}

	cycle := func() {
		eng.PreMark(col)
		col.Collect("bench")
	}
	cycle() // settle the collector's worklist growth
	m0 := hostMallocs()
	cycle()
	baseline := hostMallocs() - m0

	for i := 0; i < ownees; i++ {
		eng.AssertOwnedBy(db, space.RefAt(entries, i))
	}
	next := 0
	mutate := func() {
		for i := 0; i < churn; i++ {
			eng.AssertOwnedBy(db, newEntry(next)) // the old entry becomes garbage
			next = (next + 7919) % ownees
		}
	}
	for i := 0; i < 10; i++ { // settle worklist, block-list and side-table row growth
		mutate()
		cycle()
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	checked0 := eng.Stats().OwneesChecked
	for i := 0; i < b.N; i++ {
		mutate()
		m0 := hostMallocs()
		b.StartTimer()
		eng.PreMark(col)
		b.StopTimer()
		col.Collect("bench")
		if got := hostMallocs() - m0; got > baseline {
			b.Fatalf("steady-state collection with %d ownees allocates %d times on the host; the collector's own baseline is %d", ownees, got, baseline)
		}
	}
	checked := eng.Stats().OwneesChecked - checked0
	if checked != uint64(b.N)*ownees {
		b.Fatalf("checked %d ownees over %d collections, want %d each", checked, b.N, ownees)
	}
	if eng.OwnedPairsLive() != ownees {
		b.Fatalf("OwnedPairsLive = %d, want %d", eng.OwnedPairsLive(), ownees)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(checked), "ns/ownee")
}
