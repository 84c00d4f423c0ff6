package core

import (
	"strings"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// world is a minimal mutator harness for engine tests: a space, an engine,
// a collector, and a root slice.
type world struct {
	t     *testing.T
	reg   *heap.Registry
	space *heap.Space
	eng   *Engine
	col   *collector.Collector
	rep   *CollectingReporter
	roots []heap.Addr

	node, pair heap.TypeID
}

func (w *world) Roots(yield func(collector.Root)) {
	for i := range w.roots {
		yield(collector.Root{Slot: &w.roots[i], Desc: "root"})
	}
}

func newWorld(t *testing.T) *world {
	return newWorldPolicy(t, DefaultPolicy())
}

func newWorldPolicy(t *testing.T, p Policy) *world {
	t.Helper()
	w := &world{t: t, reg: heap.NewRegistry(), rep: &CollectingReporter{}}
	w.node = w.reg.Define("Node", heap.Field{Name: "next", Ref: true})
	w.pair = w.reg.Define("Pair", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true})
	w.space = heap.NewSpace(w.reg, 4<<20)
	w.eng = NewEngine(w.space, w.rep, p)
	w.col = collector.New(w.space, w, w.eng, true)
	return w
}

func (w *world) alloc(t heap.TypeID) heap.Addr {
	a, ok := w.space.Allocate(t, 0)
	if !ok {
		w.t.Fatal("alloc failed")
	}
	return a
}

func (w *world) root(a heap.Addr) int {
	w.roots = append(w.roots, a)
	return len(w.roots) - 1
}

func TestAssertDeadOneShotReporting(t *testing.T) {
	w := newWorld(t)
	a := w.alloc(w.node)
	w.root(a)
	w.eng.AssertDead(a)
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindDead)); n != 1 {
		t.Fatalf("violations = %d", n)
	}
	// Log mode is one-shot: the next collection stays quiet.
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindDead)); n != 1 {
		t.Fatalf("violations after 2nd GC = %d (one-shot expected)", n)
	}
	st := w.eng.Stats()
	if st.DeadAsserted != 1 || st.DeadViolations != 1 || st.DeadVerified != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAssertDeadReportedOncePerCycleWithManyEdges(t *testing.T) {
	w := newWorld(t)
	dead := w.alloc(w.node)
	// Ten parents all point at the dead-asserted object.
	for i := 0; i < 10; i++ {
		p := w.alloc(w.node)
		w.space.SetRef(p, 0, dead)
		w.root(p)
	}
	w.eng.AssertDead(dead)
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindDead)); n != 1 {
		t.Fatalf("violations = %d, want 1 (deduped within cycle)", n)
	}
}

func TestHaltPolicyPanics(t *testing.T) {
	w := newWorldPolicy(t, DefaultPolicy().With(KindDead, ReactHalt))
	a := w.alloc(w.node)
	w.root(a)
	w.eng.AssertDead(a)
	defer func() {
		r := recover()
		he, ok := r.(*HaltError)
		if !ok {
			t.Fatalf("recover = %v, want *HaltError", r)
		}
		if he.Violation.Kind != KindDead || !strings.Contains(he.Error(), "halted") {
			t.Errorf("halt error = %v", he)
		}
	}()
	w.col.Collect("t")
	t.Fatal("expected panic")
}

func TestForcePolicyOnlyAppliesToDead(t *testing.T) {
	// Force on unshared falls back to logging (cannot be forced).
	w := newWorldPolicy(t, DefaultPolicy().With(KindUnshared, ReactForce))
	p := w.alloc(w.pair)
	c := w.alloc(w.node)
	w.space.SetRef(p, 0, c)
	w.space.SetRef(p, 1, c)
	w.root(p)
	w.eng.AssertUnshared(c)
	w.col.Collect("t")
	if len(w.rep.ByKind(KindUnshared)) != 1 {
		t.Fatal("unshared violation missing")
	}
	// Both references intact.
	if w.space.GetRef(p, 0) != c || w.space.GetRef(p, 1) != c {
		t.Error("force must not sever unshared edges")
	}
}

func TestUnsharedPersistsAcrossCycles(t *testing.T) {
	w := newWorld(t)
	p := w.alloc(w.pair)
	c := w.alloc(w.node)
	w.space.SetRef(p, 0, c)
	w.space.SetRef(p, 1, c)
	w.root(p)
	w.eng.AssertUnshared(c)
	w.col.Collect("t")
	w.col.Collect("t")
	// Unshared is a persistent property: it re-reports while violated.
	if n := len(w.rep.ByKind(KindUnshared)); n != 2 {
		t.Errorf("violations = %d, want 2 (one per cycle)", n)
	}
}

func TestUnsharedSecondPathMessage(t *testing.T) {
	w := newWorld(t)
	p := w.alloc(w.pair)
	c := w.alloc(w.node)
	w.space.SetRef(p, 0, c)
	w.space.SetRef(p, 1, c)
	w.root(p)
	w.eng.AssertUnshared(c)
	w.col.Collect("t")
	v := w.rep.ByKind(KindUnshared)[0]
	if !strings.Contains(v.Message, "second path") {
		t.Errorf("message = %q", v.Message)
	}
	if len(v.Path) < 2 || v.Path[len(v.Path)-1].Addr != c {
		t.Errorf("path = %+v", v.Path)
	}
}

func TestInstancesLimitAndLastCounts(t *testing.T) {
	w := newWorld(t)
	w.eng.AssertInstances(w.node, 2)
	for i := 0; i < 5; i++ {
		w.root(w.alloc(w.node))
	}
	w.col.Collect("t")
	vs := w.rep.ByKind(KindInstances)
	if len(vs) != 1 {
		t.Fatalf("violations = %d", len(vs))
	}
	if !strings.Contains(vs[0].Message, "5 instances live, limit 2") {
		t.Errorf("message = %q", vs[0].Message)
	}
	if n, ok := w.eng.LiveInstances(w.node); !ok || n != 5 {
		t.Errorf("LiveInstances = %d, %v", n, ok)
	}
	// Unregistered type: not tracked.
	if _, ok := w.eng.LiveInstances(w.pair); ok {
		t.Error("pair should not be tracked")
	}
	// Counts reset per cycle: drop three, expect 2 next time (no violation).
	w.roots = w.roots[:2]
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindInstances)); n != 1 {
		t.Errorf("violations after shrink = %d", n)
	}
	if n, _ := w.eng.LiveInstances(w.node); n != 2 {
		t.Errorf("LiveInstances after shrink = %d", n)
	}
}

func TestInstancesZeroLimit(t *testing.T) {
	w := newWorld(t)
	w.eng.AssertInstances(w.pair, 0)
	w.col.Collect("t")
	if w.rep.Len() != 0 {
		t.Fatal("no instances: no violation")
	}
	w.root(w.alloc(w.pair))
	w.col.Collect("t")
	if len(w.rep.ByKind(KindInstances)) != 1 {
		t.Fatal("zero-limit violation missing")
	}
}

func TestInstancesNegativeLimitPanics(t *testing.T) {
	w := newWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.eng.AssertInstances(w.node, -1)
}

func TestOwnedByHappyAndLeak(t *testing.T) {
	w := newWorld(t)
	owner := w.alloc(w.pair)
	elem := w.alloc(w.node)
	stray := w.alloc(w.node)
	w.space.SetRef(owner, 0, elem)
	w.space.SetRef(stray, 0, elem)
	w.root(owner)
	w.root(stray)
	w.eng.AssertOwnedBy(owner, elem)
	w.col.Collect("t")
	if w.rep.Len() != 0 {
		t.Fatalf("owned via owner: %v", w.rep.Violations())
	}
	// Remove from owner; the stray reference is now a leak.
	w.space.SetRef(owner, 0, heap.Nil)
	w.col.Collect("t")
	vs := w.rep.ByKind(KindOwnedBy)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", w.rep.Violations())
	}
	if !strings.Contains(vs[0].Message, "does not reach") {
		t.Errorf("message = %q", vs[0].Message)
	}
	// Still leaking: ownership violations re-report each cycle.
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindOwnedBy)); n != 2 {
		t.Errorf("violations = %d, want 2", n)
	}
}

func TestOwnedByOwnerDeathDissolvesAssertion(t *testing.T) {
	w := newWorld(t)
	owner := w.alloc(w.pair)
	elem := w.alloc(w.node)
	w.space.SetRef(owner, 0, elem)
	ownerRoot := w.root(owner)
	w.root(elem) // elem independently rooted
	w.eng.AssertOwnedBy(owner, elem)
	if w.eng.OwnedPairsLive() != 1 {
		t.Fatal("pair not registered")
	}
	// Kill the owner. The elem stays alive via its own root. The paper's
	// semantics: the registration dissolves with the owner.
	w.roots[ownerRoot] = heap.Nil
	w.col.Collect("t") // owner still marked in phase 1? No: unreachable; dies this GC
	w.col.Collect("t")
	if w.eng.OwnedPairsLive() != 0 {
		t.Errorf("pairs live = %d, want 0", w.eng.OwnedPairsLive())
	}
	// No spurious ownership violations for elem afterwards.
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindOwnedBy)); n != 0 {
		t.Errorf("spurious violations: %v", w.rep.Violations())
	}
}

func TestOwnedByOwneeDeathPrunes(t *testing.T) {
	w := newWorld(t)
	owner := w.alloc(w.pair)
	elem := w.alloc(w.node)
	w.space.SetRef(owner, 0, elem)
	w.root(owner)
	w.eng.AssertOwnedBy(owner, elem)
	// Remove the element entirely: it dies, and the registration goes away.
	w.space.SetRef(owner, 0, heap.Nil)
	w.col.Collect("t")
	if w.rep.Len() != 0 {
		t.Fatalf("dead ownee must not violate: %v", w.rep.Violations())
	}
	if w.eng.OwnedPairsLive() != 0 {
		t.Errorf("pairs live = %d", w.eng.OwnedPairsLive())
	}
}

func TestOwnedByReassignment(t *testing.T) {
	w := newWorld(t)
	o1 := w.alloc(w.pair)
	o2 := w.alloc(w.pair)
	elem := w.alloc(w.node)
	w.space.SetRef(o2, 0, elem)
	w.root(o1)
	w.root(o2)
	w.eng.AssertOwnedBy(o1, elem)
	w.eng.AssertOwnedBy(o1, elem) // duplicate: no-op
	if w.eng.OwnedPairsLive() != 1 {
		t.Fatal("dup changed registry")
	}
	w.eng.AssertOwnedBy(o2, elem) // reassign to o2
	if w.eng.OwnedPairsLive() != 1 {
		t.Fatal("reassign duplicated")
	}
	w.col.Collect("t")
	// elem is owned by o2 and reachable via o2: clean.
	if w.rep.Len() != 0 {
		t.Fatalf("violations: %v", w.rep.Violations())
	}
}

func TestOwnedBySelfOwnershipPanics(t *testing.T) {
	w := newWorld(t)
	a := w.alloc(w.node)
	w.root(a)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.eng.AssertOwnedBy(a, a)
}

func TestImproperOwnershipOverlapWarning(t *testing.T) {
	w := newWorld(t)
	// Two owners share an interior object that reaches both ownees:
	// owner1 -> shared -> elem2 (ownee of owner2): overlap.
	owner1 := w.alloc(w.pair)
	owner2 := w.alloc(w.pair)
	shared := w.alloc(w.pair)
	elem1 := w.alloc(w.node)
	elem2 := w.alloc(w.node)
	w.space.SetRef(owner1, 0, elem1)
	w.space.SetRef(owner1, 1, shared)
	w.space.SetRef(owner2, 0, elem2)
	w.space.SetRef(shared, 0, elem2) // owner1's region reaches owner2's ownee
	w.root(owner1)
	w.root(owner2)
	w.eng.AssertOwnedBy(owner1, elem1)
	w.eng.AssertOwnedBy(owner2, elem2)
	w.col.Collect("t")
	if n := len(w.rep.ByKind(KindImproperOwnership)); n == 0 {
		t.Fatalf("expected improper-use warning, got %v", w.rep.Violations())
	}
	// No false ownership violation for elem2 (it was marked owned).
	if n := len(w.rep.ByKind(KindOwnedBy)); n != 0 {
		t.Errorf("false positives: %v", w.rep.ByKind(KindOwnedBy))
	}
}

func TestOwnershipTruncationHandlesBackEdges(t *testing.T) {
	w := newWorld(t)
	// owner -> e1 -> e2 -> e1 (back edge between ownees of the same owner).
	owner := w.alloc(w.pair)
	e1 := w.alloc(w.pair)
	e2 := w.alloc(w.pair)
	w.space.SetRef(owner, 0, e1)
	w.space.SetRef(e1, 0, e2)
	w.space.SetRef(e2, 0, e1)
	w.root(owner)
	w.eng.AssertOwnedBy(owner, e1)
	w.eng.AssertOwnedBy(owner, e2)
	w.col.Collect("t")
	if w.rep.Len() != 0 {
		t.Fatalf("back edges must not violate: %v", w.rep.Violations())
	}
}

func TestOwnershipKeepsOwnerSubtreeAliveOneCycle(t *testing.T) {
	// The paper's liveness artifact (§2.5.2): objects reachable only from a
	// dead owner survive the current collection (marked by the ownership
	// phase) and die at the next one.
	w := newWorld(t)
	owner := w.alloc(w.pair)
	elem := w.alloc(w.node)
	w.space.SetRef(owner, 0, elem)
	w.eng.AssertOwnedBy(owner, elem) // owner itself is unreachable!
	w.col.Collect("t")
	if !w.space.Contains(elem) {
		t.Fatal("elem should survive the first GC (ownership phase marked it)")
	}
	if w.space.Contains(owner) {
		t.Fatal("unreachable owner must be collected in the first GC")
	}
	w.col.Collect("t")
	if w.space.Contains(elem) {
		t.Fatal("elem should die at the second GC")
	}
}

func TestRegionLifecycle(t *testing.T) {
	w := newWorld(t)
	w.eng.StartRegion(7)
	if !w.eng.RegionActive(7) || w.eng.RegionActive(8) {
		t.Error("RegionActive")
	}
	a := w.alloc(w.node)
	w.eng.RecordRegionAlloc(7, a)
	w.eng.RecordRegionAlloc(8, a) // no region on thread 8: ignored
	n := w.eng.AssertAllDead(7)
	if n != 1 {
		t.Errorf("AssertAllDead = %d", n)
	}
	if w.eng.RegionActive(7) {
		t.Error("region still active")
	}
	// Double start panics; AssertAllDead without region panics.
	w.eng.StartRegion(7)
	mustPanic(t, "double StartRegion", func() { w.eng.StartRegion(7) })
	mustPanic(t, "AssertAllDead without region", func() { w.eng.AssertAllDead(9) })
}

func TestRegionQueueWeakPruning(t *testing.T) {
	w := newWorld(t)
	w.eng.StartRegion(1)
	// Allocate region objects; let half die before the region ends.
	var kept []heap.Addr
	for i := 0; i < 10; i++ {
		a := w.alloc(w.node)
		w.eng.RecordRegionAlloc(1, a)
		if i%2 == 0 {
			kept = append(kept, a)
			w.root(a)
		}
	}
	// A mid-region GC prunes the dead half from the queue.
	w.col.Collect("mid-region")
	n := w.eng.AssertAllDead(1)
	if n != len(kept) {
		t.Errorf("queue after pruning = %d, want %d", n, len(kept))
	}
	// They are still rooted: all violate.
	w.col.Collect("t")
	if got := len(w.rep.ByKind(KindDead)); got != len(kept) {
		t.Errorf("violations = %d, want %d", got, len(kept))
	}
}

func TestAssertOnInvalidObjectPanics(t *testing.T) {
	w := newWorld(t)
	mustPanic(t, "AssertDead(nil)", func() { w.eng.AssertDead(heap.Nil) })
	mustPanic(t, "AssertUnshared(garbage)", func() { w.eng.AssertUnshared(heap.Addr(12345 &^ 7)) })
	a := w.alloc(w.node)
	mustPanic(t, "AssertOwnedBy(nil, a)", func() { w.eng.AssertOwnedBy(heap.Nil, a) })
	mustPanic(t, "unknown type", func() { w.eng.AssertInstances(heap.TypeID(999), 1) })
}

func TestViolationGCSeqAndRoot(t *testing.T) {
	w := newWorld(t)
	w.col.Collect("warm")
	a := w.alloc(w.node)
	w.root(a)
	w.eng.AssertDead(a)
	w.col.Collect("t")
	v := w.rep.ByKind(KindDead)[0]
	if v.GC != 1 {
		t.Errorf("violation GC = %d, want 1", v.GC)
	}
	if v.Root != "root" {
		t.Errorf("violation root = %q", v.Root)
	}
}

func TestKindAndReactionStringers(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDead: "assert-dead", KindInstances: "assert-instances",
		KindUnshared: "assert-unshared", KindOwnedBy: "assert-ownedby",
		KindImproperOwnership: "improper-ownership", Kind(77): "Kind(77)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	for r, want := range map[Reaction]string{
		ReactLog: "log", ReactHalt: "halt", ReactForce: "force", Reaction(9): "Reaction(9)",
	} {
		if r.String() != want {
			t.Errorf("Reaction %d = %q", r, r.String())
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestDeadVerifiedIsCountedByTheSweep: the engine observes no reclamation
// itself, so every asserted-dead object the sweep reclaims — small
// cell or large span, unreachable on its own or cut
// loose in the same cycle by the force-true reaction — counts exactly once in
// DeadVerified, and the dead row of a cycle's AssertCost, harvested after
// the sweep, includes it.
func TestDeadVerifiedIsCountedByTheSweep(t *testing.T) {
	dead := func(w *world, typ heap.TypeID, n int) heap.Addr {
		a, ok := w.space.Allocate(typ, n)
		if !ok {
			t.Fatal("alloc failed")
		}
		w.eng.AssertDead(a)
		return a
	}
	expect := func(t *testing.T, w *world, verified, violations uint64) {
		t.Helper()
		st := w.eng.Stats()
		if st.DeadVerified != verified || st.DeadViolations != violations || w.space.Stats().DeadFreed != verified {
			t.Fatalf("DeadVerified %d (heap DeadFreed %d), DeadViolations %d; want %d and %d",
				st.DeadVerified, w.space.Stats().DeadFreed, st.DeadViolations, verified, violations)
		}
		if err := w.space.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("small cell", func(t *testing.T) {
		w := newWorld(t)
		dead(w, w.node, 0)
		w.alloc(w.node) // dies unasserted: not counted
		w.col.Collect("t")
		expect(t, w, 1, 0)
		w.col.Collect("t") // a freed cell's stale FlagDead is not seen again
		expect(t, w, 1, 0)
	})
	t.Run("large span", func(t *testing.T) {
		w := newWorld(t)
		dead(w, heap.TWordArray, heap.BlockWords+1)
		w.col.Collect("t")
		expect(t, w, 1, 0)
	})
	t.Run("freed in the same cycle by force-true", func(t *testing.T) {
		w := newWorldPolicy(t, DefaultPolicy().With(KindDead, ReactForce))
		p := w.alloc(w.node)
		w.root(p)
		d := dead(w, w.node, 0)
		w.space.SetRef(p, 0, d)
		w.col.Collect("t")
		if n := len(w.rep.ByKind(KindDead)); n != 1 || w.space.Contains(d) {
			t.Fatalf("%d violations, object still allocated: %v", n, w.space.Contains(d))
		}
		expect(t, w, 1, 1)
	})
	t.Run("AssertCost dead row", func(t *testing.T) {
		w := newWorld(t)
		w.eng.EnableCosts()
		w.root(dead(w, w.node, 0)) // reachable: one violation
		for i := 0; i < 3; i++ {
			dead(w, w.node, 0)
		}
		col := w.col.Collect("t")
		expect(t, w, 3, 1)
		if row := col.AssertCost[KindDead]; row.Kind != KindDead.String() || row.Checks != 4 {
			t.Fatalf("dead cost row = %+v, want 4 checks (3 verified + 1 violation)", row)
		}
		if row := w.col.Collect("t").AssertCost[KindDead]; row.Checks != 0 {
			t.Fatalf("second cycle's dead row = %+v, want 0 checks", row)
		}
	})
}
