package gcassert_test

// Property-based tests (testing/quick) for the system-level guarantees the
// paper claims: no false positives — "any violation represents a mismatch
// between the programmer's expectations and the actual behavior" — and
// detection of every violation that persists across a GC boundary.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcassert"
	"gcassert/internal/heap/refmodel"
)

// graphWorld is a randomized mutator: a pool of objects with two ref fields,
// a set of root slots, and a reference-model mirror of every edge and root.
type graphWorld struct {
	t     testing.TB
	vm    *gcassert.Runtime
	rep   *gcassert.CollectingReporter
	th    *gcassert.Thread
	fr    *gcassert.Frame
	node  gcassert.TypeID
	objs  []gcassert.Ref
	model refmodel.Graph
	nroot int
}

func newGraphWorld(t testing.TB, n, nroots int, rng *rand.Rand) *graphWorld {
	return newGraphWorldOpts(t, n, nroots, rng, gcassert.Options{HeapBytes: 8 << 20})
}

func newGraphWorldOpts(t testing.TB, n, nroots int, rng *rand.Rand, opts gcassert.Options) *graphWorld {
	t.Helper()
	w := &graphWorld{t: t, rep: &gcassert.CollectingReporter{}, nroot: nroots}
	opts.Infrastructure, opts.Reporter = true, w.rep
	w.vm = gcassert.New(opts)
	w.node = w.vm.Define("N",
		gcassert.Field{Name: "a", Ref: true},
		gcassert.Field{Name: "b", Ref: true})
	w.th = w.vm.NewThread("main")
	w.fr = w.th.Push(nroots)
	w.model.Refs = make(map[gcassert.Ref][]gcassert.Ref)
	for i := 0; i < n; i++ {
		w.objs = append(w.objs, w.th.New(w.node))
		// Root everything during construction so nothing dies early.
		if i < nroots {
			w.fr.Set(i, w.objs[i])
		}
	}
	// The constructor above can only root the first nroots objects; link
	// the rest into a temporary chain from root 0 so they survive until the
	// random edges are in place... simpler: no GC can run here because no
	// allocation happens after the last New, so wiring edges now is safe.
	for _, a := range w.objs {
		e := make([]gcassert.Ref, 2)
		for slot := 0; slot < 2; slot++ {
			if rng.Intn(3) > 0 {
				tgt := w.objs[rng.Intn(n)]
				w.vm.SetRef(a, slot, tgt)
				e[slot] = tgt
			}
		}
		w.model.Refs[a] = e
	}
	for i := 0; i < nroots; i++ {
		r := w.objs[rng.Intn(n)]
		w.fr.Set(i, r)
		w.model.Roots = append(w.model.Roots, r)
	}
	return w
}

// collect forces a full collection and holds the heap to its layout
// invariants (heap.Space.Verify) afterwards.
func (w *graphWorld) collect() {
	w.t.Helper()
	w.vm.Collect()
	w.verify("after Collect")
}

func (w *graphWorld) verify(when string) {
	w.t.Helper()
	if err := w.vm.Space().Verify(); err != nil {
		w.t.Fatalf("%s: heap invariant: %v", when, err)
	}
}

// TestPropertyDeadAssertionExact: for a random graph and a random object,
// assert-dead fires at the next GC iff the object is reachable — no false
// positives, no false negatives.
func TestPropertyDeadAssertionExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newGraphWorld(t, 120, 6, rng)
		target := w.objs[rng.Intn(len(w.objs))]
		w.vm.AssertDead(target)
		want := w.model.DeadViolated(target)
		w.collect()
		got := len(w.rep.ByKind(gcassert.KindDead)) == 1
		if got != want {
			t.Logf("seed %d: violation=%v, reachable=%v", seed, got, want)
			return false
		}
		// Verified-dead accounting on the flip side.
		if !want && w.vm.AssertionStats().DeadVerified != 1 {
			t.Logf("seed %d: unreachable object not verified dead", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnsharedExact: assert-unshared fires iff the object has two or
// more incoming heap pointers from live objects (or a root plus one pointer,
// i.e. it is encountered more than once during the trace).
func TestPropertyUnsharedExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newGraphWorld(t, 100, 5, rng)
		target := w.objs[rng.Intn(len(w.objs))]
		live := w.model.Reachable()
		if !live[target] {
			return true // dead objects are never encountered: vacuous
		}
		w.vm.AssertUnshared(target)
		enc := w.model.Encounters(target, live)
		w.collect()
		got := len(w.rep.ByKind(gcassert.KindUnshared)) > 0
		want := w.model.UnsharedViolated(target)
		if got != want {
			t.Logf("seed %d: violation=%v, encounters=%d", seed, got, enc)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyInstanceCountsMatchOracle: the engine's per-type live count
// equals the true number of reachable instances.
func TestPropertyInstanceCountsMatchOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newGraphWorld(t, 150, 7, rng)
		w.vm.AssertInstances(w.node, 1<<40) // huge limit: just count
		w.collect()
		n, ok := w.vm.LiveInstances(w.node)
		if !ok {
			return false
		}
		return n == int64(len(w.model.Reachable()))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyViolationPathsAreReal: every reported path is a genuine chain
// of references from a root to the offending object in the mirrored graph.
func TestPropertyViolationPathsAreReal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newGraphWorld(t, 120, 6, rng)
		// Assert-dead a handful of reachable objects to force violations.
		live := w.model.Reachable()
		nAsserted := 0
		for _, o := range w.objs {
			if live[o] && rng.Intn(10) == 0 {
				w.vm.AssertDead(o)
				nAsserted++
			}
		}
		w.collect()
		vs := w.rep.ByKind(gcassert.KindDead)
		if len(vs) != nAsserted {
			t.Logf("seed %d: %d asserted, %d reported", seed, nAsserted, len(vs))
			return false
		}
		for _, v := range vs {
			p := v.Path
			if len(p) == 0 || p[len(p)-1].Addr != v.Object {
				t.Logf("seed %d: path does not end at object", seed)
				return false
			}
			isRoot := false
			for _, r := range w.model.Roots {
				if r == p[0].Addr {
					isRoot = true
				}
			}
			if !isRoot {
				t.Logf("seed %d: path does not start at a root", seed)
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if !w.model.HasEdge(p[i].Addr, p[i+1].Addr) {
					t.Logf("seed %d: fake edge in path", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCollectionPreservesGraph: after arbitrary collections, every
// surviving edge still reads back exactly as mirrored (no corruption, no
// premature frees), across repeated mutate/collect rounds — collected only
// by explicit Collect calls on a roomy heap, and on a heap small enough that
// each round's garbage forces allocation-triggered collections before the
// explicit one. The heap's layout invariants are verified after every
// collection.
func TestPropertyCollectionPreservesGraph(t *testing.T) {
	t.Run("full-heap", func(t *testing.T) {
		testCollectionPreservesGraph(t, 8<<20, 0)
	})
	t.Run("alloc-triggered", func(t *testing.T) {
		testCollectionPreservesGraph(t, 4*32<<10, 12_000)
	})
}

// testCollectionPreservesGraph allocates churn garbage objects per round
// before the round's explicit collection.
func testCollectionPreservesGraph(t *testing.T, heapBytes, churn int) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newGraphWorldOpts(t, 100, 5, rng, gcassert.Options{HeapBytes: heapBytes})
		for round := 0; round < 5; round++ {
			// Random mutations among currently-live objects.
			live := w.model.Reachable()
			var liveList []gcassert.Ref
			for a := range live {
				liveList = append(liveList, a)
			}
			if len(liveList) == 0 {
				return true
			}
			for m := 0; m < 20; m++ {
				src := liveList[rng.Intn(len(liveList))]
				slot := rng.Intn(2)
				var tgt gcassert.Ref
				if rng.Intn(4) > 0 {
					tgt = liveList[rng.Intn(len(liveList))]
				}
				w.vm.SetRef(src, slot, tgt)
				w.model.Refs[src][slot] = tgt
			}
			// Drop and rebind some roots.
			for i := range w.model.Roots {
				if rng.Intn(3) == 0 {
					w.model.Roots[i] = liveList[rng.Intn(len(liveList))]
					w.fr.Set(i, w.model.Roots[i])
				}
			}
			if churn > 0 {
				// Garbage enough to fill the three usable blocks more than
				// once.
				gcs := w.vm.GCStats().Collections
				for i := 0; i < churn; i++ {
					w.th.New(w.node)
				}
				if w.vm.GCStats().Collections < gcs+2 {
					t.Logf("seed %d round %d: the churn did not trigger collections", seed, round)
					return false
				}
				w.verify("after allocation-triggered collections")
			}
			w.collect()
			// Verify all reachable edges.
			for a := range w.model.Reachable() {
				e := w.model.Refs[a]
				if w.vm.GetRef(a, 0) != e[0] || w.vm.GetRef(a, 1) != e[1] {
					t.Logf("seed %d round %d: edge corruption", seed, round)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
