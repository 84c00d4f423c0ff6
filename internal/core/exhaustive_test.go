package core_test

// Every small heap, exhaustively (the small-scope hypothesis: most heap bugs
// have a small witness). Three objects with two reference slots each, every
// edge map (4⁶), every root set (2³) and every assertion configuration:
// none, assert-dead or assert-unshared on one object, both on the same
// object (whose dead report must not silence its unshared one),
// assert-ownedby on one ordered pair, and that pair with assert-dead on one
// object, which is what reaches the pre-phase's dead check. Object relabelling is a symmetry, so
// only the case whose encoding is smallest among its six relabellings runs.
// The real collector and engine collect each heap once, twice for
// ownership, and the outcome is checked against internal/heap/refmodel:
//
//   - every reachable object survives (DESIGN.md invariant 9);
//   - no reachable survivor refers to a freed cell;
//   - Space.Verify passes;
//   - the survivors are those the model's collection predicts;
//   - the violations are the model's verdicts (invariants 10, 11, 13),
//     and each reported path is a chain of real edges ending at the object;
//   - with ownership, a second collection keeps exactly the reachable
//     objects.
//
// Each failed check is counted as a row: configuration kind, check, and
// the role the object it failed on plays. The rows of the known hole in the
// ownership pre-phase (ROADMAP item 1) are pinned; any other row fails.

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/heap/refmodel"
)

const smallObjs = 3

// smallCase is one heap and its assertions; object indices, -1 for none.
type smallCase struct {
	edges                      [smallObjs][2]int8
	roots                      uint8 // bit i: object i is rooted
	dead, unshared, owner, own int8
}

// code orders cases; the canonical case of a relabelling class has the
// smallest code.
func (c *smallCase) code() uint32 {
	v := uint32(0)
	for i := range c.edges {
		for _, t := range c.edges[i] {
			v = v<<2 | uint32(t+1)
		}
	}
	v = v<<3 | uint32(c.roots)
	for _, x := range [...]int8{c.dead, c.unshared, c.owner, c.own} {
		v = v<<2 | uint32(x+1)
	}
	return v
}

// relabel returns the case with object i renamed p[i].
func (c *smallCase) relabel(p [smallObjs]int8) smallCase {
	m := func(x int8) int8 {
		if x < 0 {
			return x
		}
		return p[x]
	}
	r := smallCase{dead: m(c.dead), unshared: m(c.unshared), owner: m(c.owner), own: m(c.own)}
	for i := range c.edges {
		r.edges[p[i]] = [2]int8{m(c.edges[i][0]), m(c.edges[i][1])}
		if c.roots&(1<<i) != 0 {
			r.roots |= 1 << p[i]
		}
	}
	return r
}

var smallPerms = [...][smallObjs]int8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

func (c *smallCase) canonical() bool {
	v := c.code()
	for _, p := range smallPerms[1:] {
		if r := c.relabel(p); r.code() < v {
			return false
		}
	}
	return true
}

// kind names the configuration for the row key.
func (c *smallCase) kind() string {
	switch {
	case c.owner >= 0 && c.dead >= 0:
		return "ownedby+dead"
	case c.owner >= 0:
		return "ownedby"
	case c.dead >= 0 && c.unshared >= 0:
		return "dead+unshared"
	case c.dead >= 0:
		return "dead"
	case c.unshared >= 0:
		return "unshared"
	}
	return "none"
}

// role names what object i is in the configuration; -1 is none.
func (c *smallCase) role(i int8) string {
	switch i {
	case -1:
		return "-"
	case c.owner:
		return "owner"
	case c.own:
		return "ownee"
	case c.dead, c.unshared:
		return "asserted"
	}
	return "other"
}

// configs lists every assertion configuration, before symmetry.
func smallConfigs() []smallCase {
	out := []smallCase{{dead: -1, unshared: -1, owner: -1, own: -1}}
	for i := int8(0); i < smallObjs; i++ {
		out = append(out, smallCase{dead: i, unshared: -1, owner: -1, own: -1},
			smallCase{dead: -1, unshared: i, owner: -1, own: -1},
			smallCase{dead: i, unshared: i, owner: -1, own: -1})
	}
	for o := int8(0); o < smallObjs; o++ {
		for e := int8(0); e < smallObjs; e++ {
			if o == e {
				continue
			}
			out = append(out, smallCase{dead: -1, unshared: -1, owner: o, own: e})
			for d := int8(0); d < smallObjs; d++ {
				out = append(out, smallCase{dead: d, unshared: -1, owner: o, own: e})
			}
		}
	}
	return out
}

// smallWorld is one heap, engine and collector that every case reuses: a
// case starts on an empty heap and leaves it empty, so cases also check that
// nothing one collection leaves behind leaks into the next.
type smallWorld struct {
	s     *heap.Space
	eng   *core.Engine
	gc    *collector.Collector
	rep   *core.CollectingReporter
	node  heap.TypeID
	roots []heap.Addr
	rows  map[string]int
}

func (w *smallWorld) Roots(yield func(collector.Root)) {
	for i := range w.roots {
		yield(collector.Root{Slot: &w.roots[i], Desc: "root"})
	}
}

func newSmallWorld() *smallWorld {
	reg := heap.NewRegistry()
	w := &smallWorld{rep: &core.CollectingReporter{}, rows: map[string]int{}}
	w.node = reg.Define("N", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true})
	w.s = heap.NewSpace(reg, 2*heap.BlockBytes)
	w.eng = core.NewEngine(w.s, w.rep, core.DefaultPolicy())
	w.gc = collector.New(w.s, w, w.eng, true)
	return w
}

// run builds, asserts, collects and checks one case, adding a count to a
// row for every check that fails, then empties the heap.
func (w *smallWorld) run(c *smallCase) {
	s := w.s
	var objs [smallObjs]heap.Addr
	for i := range objs {
		objs[i], _ = s.Allocate(w.node, 0)
	}
	at := func(i int8) heap.Addr {
		if i < 0 {
			return heap.Nil
		}
		return objs[i]
	}
	g := refmodel.Graph{Refs: map[heap.Addr][]heap.Addr{}}
	for i, e := range c.edges {
		g.Refs[objs[i]] = []heap.Addr{at(e[0]), at(e[1])}
		s.SetRef(objs[i], 0, at(e[0]))
		s.SetRef(objs[i], 1, at(e[1]))
		if c.roots&(1<<i) != 0 {
			g.Roots = append(g.Roots, objs[i])
		}
	}
	w.roots = append(w.roots[:0], g.Roots...)
	own := refmodel.Ownership{OwnerOf: map[heap.Addr]heap.Addr{}}
	want := map[core.Kind]refmodel.Set{}
	verdict := func(k core.Kind, x heap.Addr, violated bool) {
		if violated {
			want[k] = refmodel.Set{x: true}
		}
	}
	if c.owner >= 0 {
		w.eng.AssertOwnedBy(objs[c.owner], objs[c.own])
		own.Order = []heap.Addr{objs[c.owner]}
		own.OwnerOf[objs[c.own]] = objs[c.owner]
		verdict(core.KindOwnedBy, objs[c.own], g.OwnedByViolated(objs[c.owner], objs[c.own], refmodel.Set{objs[c.owner]: true}))
	}
	if c.dead >= 0 {
		w.eng.AssertDead(objs[c.dead])
		verdict(core.KindDead, objs[c.dead], g.DeadViolated(objs[c.dead]))
	}
	if c.unshared >= 0 {
		w.eng.AssertUnshared(objs[c.unshared])
		verdict(core.KindUnshared, objs[c.unshared], g.UnsharedViolated(objs[c.unshared]))
	}
	pred := g.Collect(own)
	reach := g.Reachable()

	fail := func(check string, i int8) { w.rows[c.kind()+" | "+check+" | "+c.role(i)]++ }
	freed := func(a heap.Addr) bool { return a != heap.Nil && !s.Contains(a) }
	w.rep.Reset()
	w.gc.Collect("exhaustive")
	for i, a := range objs {
		i := int8(i)
		switch {
		case reach[a] && !s.Contains(a):
			fail("reachable object freed", i)
		case reach[a] && (freed(s.GetRef(a, 0)) || freed(s.GetRef(a, 1))):
			fail("reachable survivor refers to a freed cell", i)
		}
		if s.Contains(a) != pred.Survivors[a] {
			fail("survivors differ from the model's", i)
		}
	}
	if err := s.Verify(); err != nil {
		fail("Space.Verify: "+err.Error(), -1)
	}
	got := map[core.Kind]refmodel.Set{}
	for _, v := range w.rep.Violations() {
		if got[v.Kind] == nil {
			got[v.Kind] = refmodel.Set{}
		}
		got[v.Kind][v.Object] = true
		n := len(v.Path)
		ok := n > 0 && v.Path[n-1].Addr == v.Object
		for k := 0; ok && k+1 < n; k++ {
			ok = g.HasEdge(v.Path[k].Addr, v.Path[k+1].Addr)
		}
		if !ok {
			fail(v.Kind.String()+" path is not a chain of edges to the object", -1)
		}
	}
	for k, x := range map[core.Kind]int8{core.KindDead: c.dead, core.KindUnshared: c.unshared,
		core.KindOwnedBy: c.own, core.KindImproperOwnership: c.own, core.KindInstances: -1} {
		if !maps.Equal(got[k], want[k]) {
			fail(fmt.Sprintf("%s violations: %d, model %d", k, len(got[k]), len(want[k])), x)
		}
	}
	if !maps.Equal(pred.OwnedBy, want[core.KindOwnedBy]) {
		fail("assert-ownedby predicate differs from the two-phase prediction", -1)
	}

	if c.owner >= 0 {
		w.gc.Collect("exhaustive")
		for i, a := range objs {
			if s.Contains(a) != reach[a] {
				fail("second collection keeps other than the reachable objects", int8(i))
			}
		}
	}

	// Empty the heap. A dead owner's region survives one collection.
	w.roots = w.roots[:0]
	for n := 0; s.Stats().LiveObjects > 0; n++ {
		if n == 2 {
			fail("unrooted heap does not empty in two collections", -1)
			rows := w.rows
			*w = *newSmallWorld()
			w.rows = rows
			return
		}
		w.gc.Collect("empty")
	}
}

func TestExhaustiveSmallHeaps(t *testing.T) {
	w := newSmallWorld()
	cases := 0
	for _, cfg := range smallConfigs() {
		c := cfg
		for em := 0; em < 1<<(2*2*smallObjs); em++ {
			for i := range c.edges {
				for slot := range c.edges[i] {
					c.edges[i][slot] = int8(em>>(2*(2*i+slot))&3) - 1
				}
			}
			for c.roots = 0; c.roots < 1<<smallObjs; c.roots++ {
				if c.canonical() {
					cases++
					w.run(&c)
				}
			}
		}
	}
	// ROADMAP item 1, two faces of one hole, pinned exactly.
	want := map[string]int{
		// The pre-phase never marks an owner from its own scan, and the main
		// trace never re-traces what the pre-phase marked. So an owner whose
		// every root path runs through its own region — a child's
		// back-pointer to its container, or any other region object — is
		// freed while a survivor still refers to it, and is not reported
		// when it is asserted dead. (ownedby+dead runs each heap three
		// times, once per dead-asserted object.)
		"ownedby | reachable object freed | owner":                                        4368,
		"ownedby | reachable survivor refers to a freed cell | other":                     2541,
		"ownedby | reachable survivor refers to a freed cell | ownee":                     2541,
		"ownedby | second collection keeps other than the reachable objects | owner":      4368,
		"ownedby+dead | reachable object freed | owner":                                   13104,
		"ownedby+dead | reachable survivor refers to a freed cell | asserted":             2541,
		"ownedby+dead | reachable survivor refers to a freed cell | other":                5082,
		"ownedby+dead | reachable survivor refers to a freed cell | ownee":                7623,
		"ownedby+dead | second collection keeps other than the reachable objects | owner": 13104,
		"ownedby+dead | assert-dead violations: 0, model 1 | owner":                       4368,
		// A dead owner's region is marked by its scan and survives one
		// collection, so an unreachable object in it that is asserted dead
		// is reported reachable.
		"ownedby+dead | assert-dead violations: 1, model 0 | asserted": 2800,
		"ownedby+dead | assert-dead violations: 1, model 0 | ownee":    2800,
	}
	var diff []string
	for k := range w.rows {
		if w.rows[k] != want[k] {
			diff = append(diff, fmt.Sprintf("%q: %d, pinned %d", k, w.rows[k], want[k]))
		}
	}
	for k := range want {
		if _, ok := w.rows[k]; !ok {
			diff = append(diff, fmt.Sprintf("%q: 0, pinned %d", k, want[k]))
		}
	}
	sort.Strings(diff)
	t.Logf("%d cases", cases)
	for _, d := range diff {
		t.Error(d)
	}
}
