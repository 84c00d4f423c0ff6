package collector_test

// Differential test of the lane marker (trace.go) against the reference
// model (internal/heap/refmodel). Seeded graphs whose fan-out exceeds the
// lane count, so that idle lanes steal, carry assert-dead and
// assert-unshared, some objects both. Each is collected in Base and in
// Infrastructure mode, with assert-dead logged or forced true (every edge the
// trace meets into an asserted-dead object is severed), under three regime
// probe windows: interleaved throughout, a short probe, and the default one,
// which keeps these small heaps sequential. Odd seeds spread their objects
// apart, so that after a short probe the trace switches to interleaving
// mid-mark. After every mark VerifyMark passes (DESIGN.md invariant 14);
// after the sweep
//
//   - the survivors are refmodel.Collect's, of the graph with every edge
//     into an asserted-dead object removed when the reaction is force-true;
//   - the violations are the model's verdicts (invariants 10 and 11), one
//     report per object and kind;
//   - every reported path starts at an object its named root holds and is a
//     chain of snapshot edges ending at the object;
//   - some unshared object is met from two lanes and still reported once,
//     and lanes that took no root do work: they stole it.

import (
	"fmt"
	"math/rand"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/heap/refmodel"
)

const (
	laneObjs  = 400
	laneSeeds = 24
)

// laneRoots is a root set whose slot k is described "root-k".
type laneRoots []heap.Addr

func (r laneRoots) Roots(yield func(collector.Root)) {
	for i := range r {
		yield(collector.Root{Slot: &r[i], Desc: fmt.Sprintf("root-%d", i)})
	}
}

// laneWorld is one seeded heap: objects of a two-reference record type and
// reference arrays up to twice the lane count long, random edges, a root
// array wider than the lanes, and the objects to assert dead, unshared or
// both.
// In a spread world every object is followed by garbage of its own size
// class, at least twice the probe's near distance of it, so that no scan is
// near another.
type laneWorld struct {
	s              *heap.Space
	roots          laneRoots
	dead, unshared []heap.Addr
}

func newLaneWorld(t *testing.T, seed int64) *laneWorld {
	rng := rand.New(rand.NewSource(seed))
	reg := heap.NewRegistry()
	node := reg.Define("N", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "k"}, heap.Field{Name: "b", Ref: true})
	w := &laneWorld{s: heap.NewSpace(reg, 16<<20)}
	s := w.s
	alloc := func(t0 heap.TypeID, n int) heap.Addr {
		a, ok := s.Allocate(t0, n)
		if !ok {
			t.Fatal("heap exhausted")
		}
		return a
	}
	spread := seed%2 == 1
	objs := make([]heap.Addr, laneObjs)
	for i := range objs {
		t0, n := node, 0
		if rng.Intn(5) == 0 {
			t0, n = heap.TRefArray, 1+rng.Intn(2*collector.NumLanes)
		}
		objs[i] = alloc(t0, n)
		for k := 0; spread && k < 2*collector.NearBytes; k += 8 * s.SizeWords(objs[i]) {
			alloc(t0, n)
		}
	}
	pick := func() heap.Addr { return objs[rng.Intn(len(objs))] }
	for _, a := range objs {
		if s.TypeOf(a) == heap.TRefArray {
			for i := 0; i < s.ArrayLen(a); i++ {
				if rng.Intn(4) > 0 {
					s.SetRefAt(a, i, pick())
				}
			}
			continue
		}
		for _, slot := range []int{0, 2} {
			if rng.Intn(3) > 0 {
				s.SetRef(a, slot, pick())
			}
		}
	}
	fan := alloc(heap.TRefArray, 2*collector.NumLanes+rng.Intn(8))
	for i := 0; i < s.ArrayLen(fan); i++ {
		s.SetRefAt(fan, i, pick())
	}
	w.roots = laneRoots{fan, heap.Nil}
	if rng.Intn(2) == 0 {
		w.roots[1] = pick()
	}
	for _, a := range objs {
		switch rng.Intn(12) {
		case 0:
			w.dead = append(w.dead, a)
		case 1:
			w.unshared = append(w.unshared, a)
		case 2:
			w.dead = append(w.dead, a)
			w.unshared = append(w.unshared, a)
		}
	}
	return w
}

// laneHooks is the assertion engine with a record of the lanes that met
// each unshared object.
type laneHooks struct {
	*core.Engine
	met  map[heap.Addr]map[int]bool
	lane map[int]bool // lanes that checked any edge
}

func (h *laneHooks) OnEdge(c *collector.Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) collector.EdgeAction {
	lane := c.Lane()
	h.lane[lane] = true
	if c.Space().HasFlag(child, heap.FlagUnshared) {
		if h.met[child] == nil {
			h.met[child] = map[int]bool{}
		}
		h.met[child][lane] = true
	}
	return h.Engine.OnEdge(c, parent, slot, child, marked)
}

// without returns g with every reference to an object in cut removed, from
// the roots and from every slot.
func without(g *refmodel.Graph, cut map[heap.Addr]bool) *refmodel.Graph {
	drop := func(in []heap.Addr) []heap.Addr {
		out := make([]heap.Addr, len(in))
		for i, a := range in {
			if !cut[a] {
				out[i] = a
			}
		}
		return out
	}
	h := &refmodel.Graph{Roots: drop(g.Roots), Refs: map[heap.Addr][]heap.Addr{}}
	for a, refs := range g.Refs {
		h.Refs[a] = drop(refs)
	}
	return h
}

// laneWindows are the regime probe windows each seed runs under: 0
// interleaves the lanes from the first scan, 8 probes the first eight scans
// and interleaves the rest if few of them were near each other, and the
// default keeps these small heaps sequential throughout.
var laneWindows = []int{0, 8, -1}

func TestLanesMatchReferenceModel(t *testing.T) {
	var twoLanes, thieves int
	for seed := int64(1); seed <= laneSeeds; seed++ {
		for _, window := range laneWindows {
			tl, th, lanes := checkLanes(t, seed, window)
			switch {
			case window == 0:
				twoLanes, thieves = twoLanes+tl, thieves+th
			case window == 8 && seed%2 == 1 && lanes == 1:
				t.Fatalf("seed %d: a spread world stayed sequential after a probe of 8 scans", seed)
			case window < 0 && lanes > 1:
				t.Fatalf("seed %d: a heap smaller than the probe window used %d lanes", seed, lanes)
			}
		}
	}
	t.Logf("interleaved throughout: unshared objects met from two lanes: %d; edges checked on lanes that took no root: %d", twoLanes, thieves)
	if twoLanes == 0 || thieves == 0 {
		t.Fatalf("the lanes never interleaved: %d unshared objects met from two lanes, %d thieves", twoLanes, thieves)
	}
}

// newLaneCollector is collector.New with the probe window set (unless it
// is negative) and the mark invariant checked after every mark.
func newLaneCollector(t *testing.T, what string, w *laneWorld, hooks collector.Hooks, infra bool, window int) *collector.Collector {
	c := collector.New(w.s, w.roots, hooks, infra)
	if window >= 0 {
		collector.SetProbeWindow(c, window)
	}
	collector.SetMarkCheck(c, func(err error) {
		if err != nil {
			t.Fatalf("%s: after the mark: %v", what, err)
		}
	})
	return c
}

// checkLanes collects seed's world in Base and in Infrastructure mode under
// one probe window and checks both against the model. It returns the number
// of unshared objects met from two lanes, of lanes without a root that
// checked an edge, and of lanes that checked any.
func checkLanes(t *testing.T, seed int64, window int) (twoLanes, thieves, lanes int) {
	// Base: the survivors are the reachable objects.
	what := fmt.Sprintf("seed %d window %d Base", seed, window)
	w := newLaneWorld(t, seed)
	g := refmodel.FromSpace(w.s, append([]heap.Addr(nil), w.roots...))
	want := g.Collect(refmodel.Ownership{}).Survivors
	col := newLaneCollector(t, what, w, nil, false, window).Collect("lanes")
	sameSurvivors(t, what, w.s, g, want)
	if col.ObjectsMarked != len(want) {
		t.Fatalf("%s: marked %d objects, model keeps %d", what, col.ObjectsMarked, len(want))
	}

	// Infrastructure, with assert-dead logged or forced true.
	force := seed%2 == 0
	what = fmt.Sprintf("seed %d window %d Infrastructure force=%v", seed, window, force)
	w = newLaneWorld(t, seed)
	policy := core.DefaultPolicy()
	if force {
		policy = policy.With(core.KindDead, core.ReactForce)
	}
	rep := &core.CollectingReporter{}
	h := &laneHooks{Engine: core.NewEngine(w.s, rep, policy), met: map[heap.Addr]map[int]bool{}, lane: map[int]bool{}}
	dead := map[heap.Addr]bool{}
	for _, a := range w.dead {
		h.AssertDead(a)
		dead[a] = true
	}
	for _, a := range w.unshared {
		h.AssertUnshared(a)
	}
	g = refmodel.FromSpace(w.s, append([]heap.Addr(nil), w.roots...))
	traced := g // the graph the trace follows
	if force {
		traced = without(g, dead)
	}
	want = traced.Collect(refmodel.Ownership{}).Survivors
	wantDead := map[heap.Addr]bool{}
	for _, r := range g.Roots {
		if dead[r] {
			wantDead[r] = true
		}
	}
	for a := range want {
		for _, r := range g.Refs[a] {
			if dead[r] {
				wantDead[r] = true
			}
		}
	}
	wantUnshared := map[heap.Addr]bool{}
	for _, a := range w.unshared {
		if traced.UnsharedViolated(a) {
			wantUnshared[a] = true
		}
	}

	newLaneCollector(t, what, w, h, true, window).Collect("lanes")
	sameSurvivors(t, what, w.s, g, want)
	got := map[core.Kind]map[heap.Addr]bool{core.KindDead: {}, core.KindUnshared: {}}
	for _, v := range rep.Violations() {
		set, ok := got[v.Kind]
		if !ok || set[v.Object] {
			t.Fatalf("%s: unexpected or duplicate violation:\n%s", what, v.String())
		}
		set[v.Object] = true
		checkPath(t, what, g, &v)
	}
	sameSet(t, what+": assert-dead", got[core.KindDead], wantDead)
	sameSet(t, what+": assert-unshared", got[core.KindUnshared], wantUnshared)
	for a := range wantUnshared {
		if len(h.met[a]) > 1 {
			twoLanes++
		}
	}
	for lane := range h.lane {
		if lane >= len(w.roots) {
			thieves++
		}
	}
	return twoLanes, thieves, len(h.lane)
}

// sameSurvivors checks that exactly the objects in want are still allocated.
func sameSurvivors(t *testing.T, what string, s *heap.Space, g *refmodel.Graph, want refmodel.Set) {
	t.Helper()
	for a := range g.Refs {
		if s.Contains(a) != want[a] {
			t.Fatalf("%s: %#x allocated=%v after the collection, model keeps %v", what, uint32(a), s.Contains(a), want[a])
		}
	}
}

// checkPath checks that v's path starts at an object its named root slot
// holds, follows snapshot edges and ends at the object.
func checkPath(t *testing.T, what string, g *refmodel.Graph, v *core.Violation) {
	t.Helper()
	var k int
	if _, err := fmt.Sscanf(v.Root, "root-%d", &k); err != nil || k >= len(g.Roots) {
		t.Fatalf("%s: violation names root %q:\n%s", what, v.Root, v.String())
	}
	n := len(v.Path)
	if n == 0 || v.Path[0].Addr != g.Roots[k] || v.Path[n-1].Addr != v.Object {
		t.Fatalf("%s: path does not run from %s's target %#x to the object:\n%s", what, v.Root, uint32(g.Roots[k]), v.String())
	}
	for i := 0; i+1 < n; i++ {
		if !g.HasEdge(v.Path[i].Addr, v.Path[i+1].Addr) {
			t.Fatalf("%s: reported path has no edge %#x -> %#x:\n%s", what, uint32(v.Path[i].Addr), uint32(v.Path[i+1].Addr), v.String())
		}
	}
}

func sameSet(t *testing.T, what string, got, want map[heap.Addr]bool) {
	t.Helper()
	for a := range want {
		if !got[a] {
			t.Fatalf("%s: missing violation on %#x (got %d, want %d)", what, uint32(a), len(got), len(want))
		}
	}
	for a := range got {
		if !want[a] {
			t.Fatalf("%s: spurious violation on %#x (got %d, want %d)", what, uint32(a), len(got), len(want))
		}
	}
}

// collectHalting runs one collection and reports whether a ReactHalt
// panicked out of it.
func collectHalting(c *collector.Collector) (halted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*core.HaltError); !ok {
				panic(r)
			}
			halted = true
		}
	}()
	c.Collect("halt")
	return false
}

// TestCollectionAfterHaltIsComplete: a ReactHalt panics out of the mark and
// leaves the cycle's marks in the headers and its entries on the lanes. A
// runtime that recovers keeps collecting, so the next collection must start
// clean: it completes, VerifyMark passes, and the survivors are the
// reachable objects. The first case is the smallest: a root whose first
// slot holds the halting object and whose second holds a chain the aborted
// cycle never reached.
func TestCollectionAfterHaltIsComplete(t *testing.T) {
	halt := core.DefaultPolicy().With(core.KindDead, core.ReactHalt)
	for _, window := range laneWindows {
		reg := heap.NewRegistry()
		node := reg.Define("N", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "k"}, heap.Field{Name: "b", Ref: true})
		w := &laneWorld{s: heap.NewSpace(reg, 1<<20)}
		var objs [4]heap.Addr
		for i := range objs {
			objs[i], _ = w.s.Allocate(node, 0)
		}
		r, d, x, y := objs[0], objs[1], objs[2], objs[3]
		w.s.SetRef(r, 0, d)
		w.s.SetRef(r, 2, x)
		w.s.SetRef(x, 0, y)
		w.roots = laneRoots{r}
		e := core.NewEngine(w.s, &core.CollectingReporter{}, halt)
		e.AssertDead(d)
		what := fmt.Sprintf("one root, window %d", window)
		c := newLaneCollector(t, what, w, e, true, window)
		if !collectHalting(c) {
			t.Fatalf("%s: the first collection did not halt", what)
		}
		if collectHalting(c) {
			t.Fatalf("%s: the second collection halted on the reported object", what)
		}
		for _, a := range objs {
			if !w.s.Contains(a) {
				t.Fatalf("%s: reachable %#x was swept after the halt", what, uint32(a))
			}
		}
	}
	halts := 0
	for seed := int64(1); seed <= laneSeeds; seed++ {
		for _, window := range laneWindows {
			what := fmt.Sprintf("seed %d window %d", seed, window)
			w := newLaneWorld(t, seed)
			e := core.NewEngine(w.s, &core.CollectingReporter{}, halt)
			for _, a := range w.dead {
				e.AssertDead(a)
			}
			g := refmodel.FromSpace(w.s, append([]heap.Addr(nil), w.roots...))
			c := newLaneCollector(t, what, w, e, true, window)
			for collectHalting(c) {
				if halts++; halts > laneSeeds*len(laneWindows)*laneObjs {
					t.Fatalf("%s: collections keep halting", what)
				}
			}
			sameSurvivors(t, what, w.s, g, g.Reachable())
		}
	}
	if halts == 0 {
		t.Fatal("no collection halted")
	}
}

// TestLaneReportsAreReproducible: the regime is chosen by counting
// addresses, so a program reports the same violations with the same paths,
// in the same order, every time it runs. The spread worlds interleave after
// the probe, the packed ones mostly do too.
func TestLaneReportsAreReproducible(t *testing.T) {
	run := func(seed int64) []string {
		w := newLaneWorld(t, seed)
		rep := &core.CollectingReporter{}
		e := core.NewEngine(w.s, rep, core.DefaultPolicy())
		for _, a := range w.dead {
			e.AssertDead(a)
		}
		for _, a := range w.unshared {
			e.AssertUnshared(a)
		}
		newLaneCollector(t, fmt.Sprintf("seed %d", seed), w, e, true, 64).Collect("again")
		var out []string
		for _, v := range rep.Violations() {
			out = append(out, v.String())
		}
		return out
	}
	for seed := int64(1); seed <= laneSeeds; seed++ {
		first, second := run(seed), run(seed)
		if len(first) != len(second) {
			t.Fatalf("seed %d: %d violations, then %d", seed, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("seed %d: report %d differs between runs:\n%s\nthen\n%s", seed, i, first[i], second[i])
			}
		}
	}
}
