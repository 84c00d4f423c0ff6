package collector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcassert/internal/heap"
	"gcassert/internal/heap/refmodel"
)

// sliceRoots is a test RootScanner over a plain slice.
type sliceRoots struct {
	slots []heap.Addr
}

func (r *sliceRoots) Roots(yield func(Root)) {
	for i := range r.slots {
		yield(Root{Slot: &r.slots[i], Desc: "test-root"})
	}
}

// testWorld builds a space with a simple node type (two ref fields).
func testWorld(t testing.TB, heapBytes int) (*heap.Space, heap.TypeID) {
	t.Helper()
	reg := heap.NewRegistry()
	node := reg.Define("N", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true})
	return heap.NewSpace(reg, heapBytes), node
}

// buildRandomGraph allocates n nodes with random edges and returns them.
func buildRandomGraph(t testing.TB, s *heap.Space, node heap.TypeID, n int, rng *rand.Rand) []heap.Addr {
	t.Helper()
	objs := make([]heap.Addr, n)
	for i := range objs {
		a, ok := s.Allocate(node, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		objs[i] = a
	}
	for _, a := range objs {
		for slot := 0; slot < 2; slot++ {
			if rng.Intn(3) > 0 { // 2/3 of slots populated
				s.SetRef(a, slot, objs[rng.Intn(n)])
			}
		}
	}
	return objs
}

// liveSet enumerates all allocated objects after a collection.
func liveSet(s *heap.Space) map[heap.Addr]bool {
	out := map[heap.Addr]bool{}
	s.ForEachObject(func(a heap.Addr) bool {
		out[a] = true
		return true
	})
	return out
}

// checkCollectMatchesOracle runs one randomized reachability experiment.
func checkCollectMatchesOracle(t *testing.T, infra bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, node := testWorld(t, 4<<20)
	objs := buildRandomGraph(t, s, node, 500, rng)
	roots := &sliceRoots{}
	for i := 0; i < 10; i++ {
		roots.slots = append(roots.slots, objs[rng.Intn(len(objs))])
	}
	roots.slots = append(roots.slots, heap.Nil) // nil roots are fine

	// The oracle reads the heap through the registry's Fields, not through
	// ForEachRef, which the marker uses.
	want := refmodel.FromSpace(s, roots.slots).Reachable()
	c := New(s, roots, nil, infra)
	c.checkMark = func(err error) {
		if err != nil {
			t.Fatalf("seed %d infra=%v: after the mark: %v", seed, infra, err)
		}
	}
	col := c.Collect("test")
	got := liveSet(s)

	if len(got) != len(want) {
		t.Fatalf("seed %d infra=%v: live %d objects, oracle says %d", seed, infra, len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Fatalf("seed %d: reachable %v was collected", seed, a)
		}
	}
	if col.ObjectsMarked != len(want) {
		t.Errorf("ObjectsMarked = %d, want %d", col.ObjectsMarked, len(want))
	}
	if col.ObjectsFreed != 500-len(want) {
		t.Errorf("ObjectsFreed = %d, want %d", col.ObjectsFreed, 500-len(want))
	}
}

func TestCollectMatchesReachabilityOracleBase(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		checkCollectMatchesOracle(t, false, seed)
	}
}

func TestCollectMatchesReachabilityOracleInfra(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		checkCollectMatchesOracle(t, true, seed)
	}
}

// TestBaseAndInfraIdenticalLiveSets is the property that infrastructure mode
// is semantically transparent: both traces keep exactly the same objects.
func TestBaseAndInfraIdenticalLiveSets(t *testing.T) {
	prop := func(seed int64) bool {
		collectOnce := func(infra bool) int {
			rng := rand.New(rand.NewSource(seed))
			s, node := testWorld(t, 4<<20)
			objs := buildRandomGraph(t, s, node, 300, rng)
			roots := &sliceRoots{}
			for i := 0; i < 8; i++ {
				roots.slots = append(roots.slots, objs[rng.Intn(len(objs))])
			}
			c := New(s, roots, nil, infra)
			c.Collect("prop")
			return len(liveSet(s))
		}
		return collectOnce(false) == collectOnce(true)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// recordingHooks records OnEdge invocations and can request actions.
type recordingHooks struct {
	pre, post, swept int
	edges            []heap.Addr
	action           func(child heap.Addr, marked bool) EdgeAction
	paths            [][]heap.Addr
}

func (h *recordingHooks) PreMark(c *Collector)  { h.pre++ }
func (h *recordingHooks) PostMark(c *Collector) { h.post++ }
func (h *recordingHooks) PostSweep(c *Collector) []AssertCost {
	h.swept++
	return nil
}
func (h *recordingHooks) OnEdge(c *Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) EdgeAction {
	h.edges = append(h.edges, child)
	h.paths = append(h.paths, c.CurrentPath())
	if h.action != nil {
		return h.action(child, marked)
	}
	return EdgeProceed
}

func TestHooksLifecycleAndFlaggedEdges(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	a, _ := s.Allocate(node, 0)
	b, _ := s.Allocate(node, 0)
	cc, _ := s.Allocate(node, 0)
	s.SetRef(a, 0, b)
	s.SetRef(b, 0, cc)
	roots := &sliceRoots{slots: []heap.Addr{a}}

	// Without assertion flags: each phase hook once, no edge callbacks.
	h := &recordingHooks{}
	c := New(s, roots, h, true)
	c.Collect("t")
	if h.pre != 1 || h.post != 1 || h.swept != 1 {
		t.Errorf("pre=%d post=%d swept=%d", h.pre, h.post, h.swept)
	}
	if len(h.edges) != 0 {
		t.Errorf("unflagged edges reported: %v", h.edges)
	}

	// A flagged object is reported.
	s.SetFlag(cc, heap.FlagUnshared)
	h2 := &recordingHooks{}
	c2 := New(s, roots, h2, true)
	c2.Collect("t")
	if len(h2.edges) != 1 || h2.edges[0] != cc {
		t.Errorf("flagged edge: %v", h2.edges)
	}
}

func TestEdgeClearSeversReference(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	a, _ := s.Allocate(node, 0)
	b, _ := s.Allocate(node, 0)
	s.SetRef(a, 0, b)
	s.SetFlag(b, heap.FlagDead)
	roots := &sliceRoots{slots: []heap.Addr{a}}
	h := &recordingHooks{action: func(child heap.Addr, marked bool) EdgeAction {
		if child == b {
			return EdgeClear
		}
		return EdgeProceed
	}}
	c := New(s, roots, h, true)
	col := c.Collect("t")
	if s.GetRef(a, 0) != heap.Nil {
		t.Error("edge not severed")
	}
	if col.ObjectsFreed != 1 {
		t.Errorf("b not freed: %+v", col)
	}
}

func TestEdgeClearSeversRoot(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	b, _ := s.Allocate(node, 0)
	s.SetFlag(b, heap.FlagDead)
	roots := &sliceRoots{slots: []heap.Addr{b}}
	h := &recordingHooks{action: func(heap.Addr, bool) EdgeAction { return EdgeClear }}
	c := New(s, roots, h, true)
	col := c.Collect("t")
	if roots.slots[0] != heap.Nil {
		t.Error("root not cleared")
	}
	if col.ObjectsFreed != 1 {
		t.Error("b survived")
	}
}

func TestEdgeSkipDoesNotMark(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	a, _ := s.Allocate(node, 0)
	b, _ := s.Allocate(node, 0)
	s.SetRef(a, 0, b)
	s.SetFlag(b, heap.FlagDead) // flag so the hook sees it
	roots := &sliceRoots{slots: []heap.Addr{a}}
	h := &recordingHooks{action: func(child heap.Addr, _ bool) EdgeAction {
		if child == b {
			return EdgeSkip
		}
		return EdgeProceed
	}}
	c := New(s, roots, h, true)
	col := c.Collect("t")
	if col.ObjectsFreed != 1 {
		t.Error("skipped child should be collected (not marked)")
	}
	if s.GetRef(a, 0) != b {
		t.Error("skip must not clear the slot")
	}
}

// TestCurrentPathIsRealPath checks the paper's path-reconstruction property:
// whenever the hook fires, the visited-bit entries on the worklist form an
// actual chain of references from a root to the current parent.
func TestCurrentPathIsRealPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s, node := testWorld(t, 4<<20)
	objs := buildRandomGraph(t, s, node, 200, rng)
	// Flag a handful of objects so the hook fires mid-trace.
	for i := 0; i < 20; i++ {
		s.SetFlag(objs[rng.Intn(len(objs))], heap.FlagDead)
	}
	roots := &sliceRoots{slots: []heap.Addr{objs[0], objs[1], objs[2]}}
	h := &recordingHooks{}
	c := New(s, roots, h, true)
	c.Collect("t")
	if len(h.paths) == 0 {
		t.Fatal("no hook invocations")
	}
	rootSet := map[heap.Addr]bool{objs[0]: true, objs[1]: true, objs[2]: true}
	for _, path := range h.paths {
		if len(path) == 0 {
			continue // root edge: no ancestors
		}
		if !rootSet[path[0]] {
			t.Fatalf("path %v does not start at a root", path)
		}
		for i := 0; i+1 < len(path); i++ {
			found := false
			s.ForEachRef(path[i], func(_ int, tgt heap.Addr) {
				if tgt == path[i+1] {
					found = true
				}
			})
			if !found {
				t.Fatalf("path hop %v -> %v is not a real edge", path[i], path[i+1])
			}
		}
	}
}

func TestCollectorStatsAccumulate(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	a, _ := s.Allocate(node, 0)
	roots := &sliceRoots{slots: []heap.Addr{a}}
	c := New(s, roots, nil, false)
	c.Collect("one")
	c.Collect("two")
	st := c.Stats()
	if st.Collections != 2 {
		t.Errorf("Collections = %d", st.Collections)
	}
	if c.GCCount() != 2 {
		t.Errorf("GCCount = %d", c.GCCount())
	}
	if c.Last().Reason != "two" {
		t.Errorf("Last reason = %q", c.Last().Reason)
	}
	if st.TotalGCTime <= 0 || st.MaxPause <= 0 {
		t.Errorf("times not recorded: %+v", st)
	}
	if st.String() == "" || c.Last().String() == "" {
		t.Error("stringers empty")
	}
	c.ResetStats()
	if c.Stats().Collections != 0 {
		t.Error("ResetStats")
	}
	if c.Infrastructure() {
		t.Error("Infrastructure() should be false here")
	}
	if c.Space() != s {
		t.Error("Space()")
	}
}

// TestSelfLoopAndCycles ensures cyclic structures are traced exactly once.
func TestSelfLoopAndCycles(t *testing.T) {
	for _, infra := range []bool{false, true} {
		s, node := testWorld(t, 1<<20)
		a, _ := s.Allocate(node, 0)
		b, _ := s.Allocate(node, 0)
		s.SetRef(a, 0, a) // self loop
		s.SetRef(a, 1, b)
		s.SetRef(b, 0, a) // cycle
		roots := &sliceRoots{slots: []heap.Addr{a}}
		c := New(s, roots, nil, infra)
		col := c.Collect("t")
		if col.ObjectsMarked != 2 || col.ObjectsFreed != 0 {
			t.Errorf("infra=%v: marked=%d freed=%d", infra, col.ObjectsMarked, col.ObjectsFreed)
		}
	}
}

// TestDuplicateRoots ensures an object referenced by many roots is marked
// once and survives.
func TestDuplicateRoots(t *testing.T) {
	s, node := testWorld(t, 1<<20)
	a, _ := s.Allocate(node, 0)
	roots := &sliceRoots{slots: []heap.Addr{a, a, a}}
	c := New(s, roots, nil, true)
	col := c.Collect("t")
	if col.ObjectsMarked != 1 {
		t.Errorf("marked = %d", col.ObjectsMarked)
	}
	if col.RootsScanned != 3 {
		t.Errorf("roots scanned = %d", col.RootsScanned)
	}
}

// TestSteadyCollectionAllocatesNothing pins the marker's host allocations:
// once the lanes' worklists and the root buffer have grown, collecting a
// fixed graph whose fan-out exceeds the lane count allocates nothing, in
// either configuration and either regime (this heap stays sequential under
// the default probe; window 0 interleaves it throughout).
func TestSteadyCollectionAllocatesNothing(t *testing.T) {
	for _, mode := range []struct {
		infra  bool
		window int
	}{{false, probeScans}, {true, probeScans}, {false, 0}, {true, 0}} {
		infra := mode.infra
		rng := rand.New(rand.NewSource(7))
		s, node := testWorld(t, 4<<20)
		objs := buildRandomGraph(t, s, node, 500, rng)
		fan, _ := s.Allocate(heap.TRefArray, 4*numLanes)
		for i := 0; i < s.ArrayLen(fan); i++ {
			s.SetRefAt(fan, i, objs[rng.Intn(len(objs))])
		}
		roots := &sliceRoots{slots: []heap.Addr{fan, objs[0]}}
		c := New(s, roots, &recordingHooks{}, infra)
		c.window = mode.window
		c.Collect("warm")
		if allocs := testing.AllocsPerRun(20, func() { c.Collect("steady") }); allocs != 0 {
			t.Errorf("infra=%v window=%d: a steady-state collection allocates %.1f times", infra, mode.window, allocs)
		}
	}
}

// TestProbeFollowsLayout: the regime probe counts how many of its scans
// land near the ones before. A tree allocated in the order the marker
// traces it (depth first, as the DaCapo-shaped workloads build theirs)
// keeps the sequential regime; the same tree with each node followed by
// garbage of its size class, so that no two live nodes share a page,
// switches to interleaving once the probe window is over. Either way the
// mark is complete.
func TestProbeFollowsLayout(t *testing.T) {
	for _, spread := range []bool{false, true} {
		reg := heap.NewRegistry()
		node := reg.Define("T", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true},
			heap.Field{Name: "c", Ref: true}, heap.Field{Name: "d", Ref: true}, heap.Field{Name: "v"})
		s := heap.NewSpace(reg, 16<<20)
		alloc := func() heap.Addr {
			a, ok := s.Allocate(node, 0)
			for k := 0; spread && k < 2*nearBytes; k += 8 * s.SizeWords(a) {
				s.Allocate(node, 0)
			}
			if !ok {
				t.Fatal("heap exhausted")
			}
			return a
		}
		var build func(depth int) heap.Addr
		build = func(depth int) heap.Addr {
			a := alloc()
			for i := 0; depth > 0 && i < 4; i++ {
				s.SetRef(a, i, build(depth-1))
			}
			return a
		}
		roots := &sliceRoots{slots: []heap.Addr{build(5)}} // 1 365 nodes
		c := New(s, roots, nil, false)
		c.window = 256
		c.checkMark = func(err error) {
			if err != nil {
				t.Fatalf("spread=%v: after the mark: %v", spread, err)
			}
		}
		col := c.Collect("probe")
		if col.ObjectsMarked != 1365 {
			t.Fatalf("spread=%v: marked %d nodes, want 1365", spread, col.ObjectsMarked)
		}
		// Only the interleaved regime runs a lane other than lane 0.
		if interleaved := cap(c.lanes[1].stack) > 0; interleaved != spread {
			t.Errorf("spread=%v: interleaved=%v", spread, interleaved)
		}
	}
}
