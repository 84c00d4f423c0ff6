package core_test

// Differential property test for the ownership registry. A seeded random
// mutator builds a graph, asserts random owner/ownee pairs (re-assigning
// ownees, nesting and overlapping regions), drops roots so ownees and owners
// die and their cells are reused, and collects. A naive model of the same
// heap (internal/heap/refmodel) predicts, per full collection, the exact set
// of freed objects, the assert-ownedby and improper-ownership violation sets,
// the ownee-check count, the live-instance count and OwnedPairsLive; after
// every sweep the ownee side
// table is checked against its invariant (DESIGN.md, side-table
// invariant 2) and the heap against its own (heap.Space.Verify, invariants
// 1 and 3–7).

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/heap/refmodel"
	"gcassert/internal/rt"
)

const (
	propRoots  = 6
	propNodes  = 60
	propRounds = 8
	propSeeds  = 40
)

// ownModel is the oracle's copy of the heap — Refs holds every allocated
// node the mutator made, Roots mirrors the frame's slots — and of the
// ownership registry.
type ownModel struct {
	refmodel.Graph
	refmodel.Ownership
}

// sweep applies a collection's outcome to the model: objects for which
// alive is false are gone, and the registry is pruned the way pruneWeak
// prunes it — a dead owner dissolves its whole relation, a live one loses
// its dead ownees, and a record left without ownees is dropped.
func (m *ownModel) sweep(alive func(heap.Addr) bool) {
	live := map[heap.Addr]int{}
	for oe, o := range m.OwnerOf {
		if !alive(oe) || !alive(o) {
			delete(m.OwnerOf, oe)
		} else {
			live[o]++
		}
	}
	keep := m.Order[:0]
	for _, o := range m.Order {
		if live[o] > 0 {
			keep = append(keep, o)
		}
	}
	m.Order = keep
	for a := range m.Refs {
		if !alive(a) {
			delete(m.Refs, a)
		}
	}
}

// ownWorld drives one runtime and its model in lockstep.
type ownWorld struct {
	t     *testing.T
	rng   *rand.Rand
	vm    *rt.Runtime
	th    *rt.Thread
	fr    *rt.Frame
	rep   *core.CollectingReporter
	node  heap.TypeID
	model ownModel

	// Addresses whose previous tenant was a registered ownee / owner when it
	// died, to recognise the reuse hazards when they happen.
	deadOwnees, deadOwners map[heap.Addr]bool
	tally                  *propTally
}

// propTally counts how often the hazards the test exists for occurred.
type propTally struct {
	owneeCellReuse, ownerAddrReuse, reassigned, improper, ownedBy, dissolved int
}

func newOwnWorld(t *testing.T, seed int64, tally *propTally) *ownWorld {
	w := &ownWorld{t: t, rng: rand.New(rand.NewSource(seed)), rep: &core.CollectingReporter{}, tally: tally,
		deadOwnees: map[heap.Addr]bool{}, deadOwners: map[heap.Addr]bool{}}
	w.vm = rt.New(rt.Config{Infrastructure: true, Reporter: w.rep, HeapBytes: 8 * heap.BlockBytes})
	w.node = w.vm.Define("N", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true})
	w.th = w.vm.NewThread("main")
	w.fr = w.th.Push(propRoots)
	// A limit no collection reaches: LiveInstances then counts every
	// survivor, the pre-phase's marks included.
	w.vm.AssertInstances(w.node, 1<<40)
	w.model.Refs = map[heap.Addr][]heap.Addr{}
	w.model.Roots = make([]heap.Addr, propRoots)
	w.model.OwnerOf = map[heap.Addr]heap.Addr{}
	return w
}

func (w *ownWorld) nodes() []heap.Addr {
	out := make([]heap.Addr, 0, len(w.model.Refs))
	for a := range w.model.Refs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (w *ownWorld) newNode() heap.Addr {
	a := w.th.New(w.node)
	if _, dup := w.model.Refs[a]; dup {
		w.t.Fatalf("allocator handed out live address %#x", uint32(a))
	}
	if w.deadOwnees[a] {
		w.tally.owneeCellReuse++
		delete(w.deadOwnees, a)
	}
	w.model.Refs[a] = make([]heap.Addr, 2)
	return a
}

func (w *ownWorld) setEdge(a heap.Addr, slot int, t heap.Addr) {
	w.vm.Space().SetRef(a, slot, t)
	w.model.Refs[a][slot] = t
}

func (w *ownWorld) setRoot(i int, a heap.Addr) {
	w.fr.Set(i, a)
	w.model.Roots[i] = a
}

func (w *ownWorld) assertOwnedBy(owner, ownee heap.Addr) {
	m := &w.model
	if prev, ok := m.OwnerOf[ownee]; ok && prev != owner {
		w.tally.reassigned++
	}
	if !slices.Contains(m.Order, owner) {
		m.Order = append(m.Order, owner)
		if w.deadOwners[owner] {
			w.tally.ownerAddrReuse++
			delete(w.deadOwners, owner)
		}
	}
	m.OwnerOf[ownee] = owner
	w.vm.AssertOwnedBy(owner, ownee)
}

// mutate allocates, rewires, re-roots and asserts. New nodes are favoured
// as owners and ownees so that recycled cells re-enter the registry.
func (w *ownWorld) mutate(fresh int) {
	rng := w.rng
	var young []heap.Addr
	for i := 0; i < fresh; i++ {
		// Root it somewhere; whether it stays reachable is up to the roots
		// and edges drawn below.
		a := w.newNode()
		w.setRoot(rng.Intn(propRoots), a)
		young = append(young, a)
	}
	// Like a real mutator it works only with what it can reach: the new
	// nodes and whatever was reachable when it started (no collection runs
	// inside mutate, so holding those in unrooted locals is legitimate).
	reach := w.model.Reachable()
	var all []heap.Addr
	for _, a := range w.nodes() {
		if reach[a] {
			all = append(all, a)
		}
	}
	if len(all) == 0 {
		return
	}
	pick := func() heap.Addr { return all[rng.Intn(len(all))] }
	for _, a := range young {
		for slot := 0; slot < 2; slot++ {
			if rng.Intn(3) > 0 {
				w.setEdge(a, slot, pick())
			}
		}
		w.setEdge(pick(), rng.Intn(2), a)
	}
	for i := 0; i < len(all)/8; i++ {
		t := heap.Nil
		if rng.Intn(4) > 0 {
			t = pick()
		}
		w.setEdge(pick(), rng.Intn(2), t)
	}
	for i := 0; i < propRoots; i++ {
		switch rng.Intn(4) {
		case 0:
			w.setRoot(i, heap.Nil)
		case 1:
			w.setRoot(i, pick())
		}
	}
	owners := []heap.Addr{pick(), pick(), pick()}
	if len(young) > 0 {
		owners[0] = young[0]
	}
	var owned []heap.Addr
	for _, a := range all {
		if _, ok := w.model.OwnerOf[a]; ok {
			owned = append(owned, a)
		}
	}
	for i := 0; i < 6+len(all)/4; i++ {
		owner, ownee := owners[rng.Intn(len(owners))], pick()
		switch kind := rng.Intn(3); {
		case kind == 0 && len(young) > 0:
			ownee = young[rng.Intn(len(young))]
		case kind == 1 && len(owned) > 0: // lean towards re-assignment
			ownee = owned[rng.Intn(len(owned))]
		}
		if owner != ownee {
			w.assertOwnedBy(owner, ownee)
		}
	}
}

// check compares the engine's registry with the model's and verifies the
// side-table and heap-layout invariants.
func (w *ownWorld) check(when string) {
	w.t.Helper()
	if err := w.vm.Space().Verify(); err != nil {
		w.t.Fatalf("%s: heap invariant: %v", when, err)
	}
	eng := w.vm.Engine()
	if err := eng.CheckOwneeTable(); err != nil {
		w.t.Fatalf("%s: side-table invariant: %v", when, err)
	}
	if got, want := eng.OwnedPairsLive(), len(w.model.OwnerOf); got != want {
		w.t.Fatalf("%s: OwnedPairsLive = %d, model has %d", when, got, want)
	}
}

// noteDeaths records registered objects about to disappear, given which
// objects survive.
func (w *ownWorld) noteDeaths(alive func(heap.Addr) bool) {
	for oe, o := range w.model.OwnerOf {
		if !alive(oe) {
			w.deadOwnees[oe] = true
		}
		if !alive(o) {
			w.deadOwners[o] = true
			if alive(oe) {
				w.tally.dissolved++
			}
		}
	}
}

// fullGC predicts a full collection, runs it and compares. It first roots
// every owner the collection would free while a survivor still points to it
// — a hole that predates the side table and is not this test's subject: an
// owner is never marked from its own region scan, so one that is referenced
// only from inside its own region is swept under a live reference.
func (w *ownWorld) fullGC() {
	t, m := w.t, &w.model
	w.fr.Truncate(propRoots)
	m.Roots = m.Roots[:propRoots]
	want := m.Collect(m.Ownership)
pin:
	for _, a := range w.nodes() {
		for _, tgt := range m.Refs[a] {
			if want.Survivors[a] && tgt != heap.Nil && !want.Survivors[tgt] {
				w.fr.Add(tgt)
				m.Roots = append(m.Roots, tgt)
				want = m.Collect(m.Ownership)
				goto pin
			}
		}
	}

	w.rep.Reset()
	checked0 := w.vm.Engine().Stats().OwneesChecked
	w.vm.Collect()

	got := map[core.Kind]map[heap.Addr]bool{core.KindOwnedBy: {}, core.KindImproperOwnership: {}}
	for _, v := range w.rep.Violations() {
		set, ok := got[v.Kind]
		if !ok || set[v.Object] {
			t.Fatalf("unexpected or duplicate violation:\n%s", v.String())
		}
		set[v.Object] = true
		if owner := fmt.Sprintf("@%#x", uint32(m.OwnerOf[v.Object])); !strings.Contains(v.Message, owner) {
			t.Fatalf("%s on %#x does not name asserted owner %s: %q", v.Kind, uint32(v.Object), owner, v.Message)
		}
		for i := 0; i+1 < len(v.Path); i++ {
			if !m.HasEdge(v.Path[i].Addr, v.Path[i+1].Addr) {
				t.Fatalf("reported path has no edge %#x -> %#x:\n%s", uint32(v.Path[i].Addr), uint32(v.Path[i+1].Addr), v.String())
			}
		}
		if n := len(v.Path); n == 0 || v.Path[n-1].Addr != v.Object {
			t.Fatalf("reported path does not end at the object:\n%s", v.String())
		}
	}
	sameSet(t, "assert-ownedby", got[core.KindOwnedBy], want.OwnedBy)
	sameSet(t, "improper-ownership", got[core.KindImproperOwnership], want.Improper)
	w.tally.ownedBy += len(want.OwnedBy)
	w.tally.improper += len(want.Improper)
	if d := w.vm.Engine().Stats().OwneesChecked - checked0; d != want.Checked {
		t.Fatalf("OwneesChecked grew by %d, model met %d ownee edges", d, want.Checked)
	}
	for a := range m.Refs {
		if w.vm.Space().Contains(a) != want.Survivors[a] {
			t.Fatalf("%#x: allocated=%v after the collection, model says %v", uint32(a), !want.Survivors[a], want.Survivors[a])
		}
	}
	if n, _ := w.vm.Engine().LiveInstances(w.node); n != int64(len(want.Survivors)) {
		t.Fatalf("LiveInstances = %d, model keeps %d", n, len(want.Survivors))
	}
	alive := func(a heap.Addr) bool { return want.Survivors[a] }
	w.noteDeaths(alive)
	m.sweep(alive)
	w.check("after full collection")
}

func sameSet(t *testing.T, what string, got, want map[heap.Addr]bool) {
	t.Helper()
	for a := range want {
		if !got[a] {
			t.Fatalf("%s: missing violation on %#x (got %v, want %v)", what, uint32(a), got, want)
		}
	}
	for a := range got {
		if !want[a] {
			t.Fatalf("%s: spurious violation on %#x (got %v, want %v)", what, uint32(a), got, want)
		}
	}
}

func TestPropertyOwnershipDifferential(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		var tally propTally
		for seed := int64(1); seed <= propSeeds; seed++ {
			w := newOwnWorld(t, seed, &tally)
			w.mutate(propNodes)
			w.check("after set-up")
			for round := 0; round < propRounds; round++ {
				w.fullGC()
				w.mutate(10)
				w.check("after mutation")
			}
			w.fullGC()
		}
		t.Logf("%+v", tally)
		// The generator must keep reaching the cases the test is for.
		if tally.owneeCellReuse == 0 || tally.ownerAddrReuse == 0 || tally.reassigned == 0 ||
			tally.improper == 0 || tally.ownedBy == 0 || tally.dissolved == 0 {
			t.Fatalf("a hazard was never exercised: %+v", tally)
		}
	})
	t.Run("long queues", func(t *testing.T) {
		var tally queueTally
		for seed := int64(1); seed <= 12; seed++ {
			longQueues(t, seed, &tally)
		}
		t.Logf("%+v", tally)
		if tally.nested == 0 || tally.longArrays == 0 || tally.wide == 0 || tally.nilSlots == 0 ||
			tally.deadInSubtree == 0 || tally.improper == 0 || tally.ownedBy == 0 || tally.deadImproper == 0 {
			t.Fatalf("a shape was never built: %+v", tally)
		}
	})
}

// queueTally counts the shapes the long-queue subtest exists for: each must
// occur, or the subtest no longer reaches what it is meant to.
type queueTally struct {
	ownees, nested, longArrays, wide, nilSlots, deadInSubtree, improper, ownedBy, deadImproper int
}

// longQueues builds one heap whose owners each hold at least 64 ownees —
// so the pre-phase's ownee queue runs far past the lookahead of
// heap.Space.PrefetchQueue and every stage of it is reached — collects
// once and compares with refmodel.Collect. The ownees are records with
// subtrees, reference arrays longer than a prefetch stage's cap, wide
// objects and word arrays; some are nested (reached only through another
// ownee, so they join the queue while it drains), some are reached from
// another owner's region, some from the roots only. Slots are often Nil,
// and objects inside the subtrees are asserted dead. Every owner is rooted,
// so the survivors are the reachable objects (ROADMAP item 1's hole needs
// an owner reached only through its own region).
func longQueues(t *testing.T, seed int64, tally *queueTally) {
	rng := rand.New(rand.NewSource(seed))
	rep := &core.CollectingReporter{}
	vm := rt.New(rt.Config{Infrastructure: true, Reporter: rep, HeapBytes: 16 << 20})
	s := vm.Space()
	tOwner := vm.Define("Owner", heap.Field{Name: "table", Ref: true})
	tNode := vm.Define("Node", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "k"}, heap.Field{Name: "b", Ref: true})
	var wideFields []heap.Field
	for i := 0; i < 70; i++ {
		wideFields = append(wideFields, heap.Field{Name: fmt.Sprintf("f%d", i), Ref: i%3 != 1})
	}
	tWide := vm.Define("Wide", wideFields...)
	th := vm.NewThread("main")
	fr := th.Push(0)
	own := refmodel.Ownership{OwnerOf: map[heap.Addr]heap.Addr{}}
	var dead []heap.Addr

	// refSlots lists the reference slots of a Node, Wide or reference array.
	refSlots := func(a heap.Addr) []int {
		var out []int
		switch typ := s.TypeOf(a); typ {
		case tNode:
			out = []int{0, 2}
		case tWide:
			for i, f := range wideFields {
				if f.Ref {
					out = append(out, i)
				}
			}
		case heap.TRefArray:
			for i := 0; i < s.ArrayLen(a); i++ {
				out = append(out, i)
			}
		}
		return out
	}
	setSlot := func(a heap.Addr, slot int, v heap.Addr) {
		if s.TypeOf(a) == heap.TRefArray {
			s.SetRefAt(a, slot, v)
		} else {
			s.SetRef(a, slot, v)
		}
	}
	// interior collects the subtrees' objects with ref slots, where the
	// edges between regions are hung.
	var interior []heap.Addr
	var subtree func(depth int) heap.Addr
	fill := func(a heap.Addr, depth int) {
		for _, slot := range refSlots(a) {
			r := subtree(depth)
			if r == heap.Nil {
				tally.nilSlots++
			}
			setSlot(a, slot, r)
		}
	}
	subtree = func(depth int) heap.Addr {
		var a heap.Addr
		switch r := rng.Intn(8); {
		case depth == 0 || r == 0:
			return heap.Nil
		case r == 1:
			return th.NewArray(heap.TWordArray, 1+rng.Intn(6))
		case r <= 5:
			a = th.New(tNode)
			s.SetScalar(a, 1, rng.Uint64())
		default:
			a = th.NewArray(heap.TRefArray, 1+rng.Intn(4))
		}
		fill(a, depth-1)
		interior = append(interior, a)
		if rng.Intn(10) == 0 {
			vm.AssertDead(a)
			dead = append(dead, a)
		}
		return a
	}
	owners := make([]heap.Addr, 2+rng.Intn(2))
	var ownees [][]heap.Addr // per owner, its ownees
	var deadOwnees []heap.Addr
	for oi := range owners {
		o := th.New(tOwner)
		fr.Add(o)
		owners[oi] = o
		n := 64 + rng.Intn(40)
		table := th.NewArray(heap.TRefArray, n)
		s.SetRef(o, 0, table)
		var placed, mine []heap.Addr
		for i := 0; i < n; i++ {
			var x heap.Addr
			switch k := rng.Intn(10); {
			case k < 6:
				x = th.New(tNode)
			case k < 8:
				x = th.NewArray(heap.TRefArray, 9+rng.Intn(12))
				tally.longArrays++
			case k < 9:
				x = th.New(tWide)
				tally.wide++
			default:
				x = th.NewArray(heap.TWordArray, 3)
			}
			fill(x, 3)
			vm.AssertOwnedBy(o, x)
			own.OwnerOf[x] = o
			tally.ownees++
			switch {
			case len(placed) > 0 && rng.Intn(6) == 0:
				// Nested: hung in an earlier ownee's slot, so it is queued
				// while the queue drains.
				h := placed[rng.Intn(len(placed))]
				if slots := refSlots(h); len(slots) > 0 {
					setSlot(h, slots[rng.Intn(len(slots))], x)
					tally.nested++
					placed = append(placed, x)
					continue
				}
				fallthrough
			case rng.Intn(20) != 0:
				s.SetRefAt(table, i, x)
				placed = append(placed, x)
			default:
				fr.Add(x) // reached from the roots only
			}
			if rng.Intn(25) == 0 {
				vm.AssertDead(x)
				dead = append(dead, x)
				deadOwnees = append(deadOwnees, x)
			}
			mine = append(mine, x)
		}
		own.Order = append(own.Order, o)
		ownees = append(ownees, mine)
	}
	// Edges between regions: an interior node pointing at an owner, at an
	// ownee asserted dead (reported for both kinds when the edge is in
	// another owner's region) or at any ownee.
	for i := 0; i < 6; i++ {
		a := interior[rng.Intn(len(interior))]
		slots := refSlots(a)
		if len(slots) == 0 {
			continue
		}
		var v heap.Addr
		switch r := rng.Intn(3); {
		case r == 0:
			v = owners[rng.Intn(len(owners))]
		case r == 1 && len(deadOwnees) > 0:
			v = deadOwnees[rng.Intn(len(deadOwnees))]
		default:
			list := ownees[rng.Intn(len(ownees))]
			v = list[rng.Intn(len(list))]
		}
		setSlot(a, slots[rng.Intn(len(slots))], v)
	}
	if n := vm.Collector().GCCount(); n != 0 {
		t.Fatalf("seed %d: %d collections while building the heap", seed, n)
	}

	var roots []heap.Addr
	for i := 0; i < fr.Len(); i++ {
		roots = append(roots, fr.Get(i))
	}
	g := refmodel.FromSpace(s, roots)
	want := g.Collect(own)
	reach := g.Reachable()
	wantDead := map[heap.Addr]bool{}
	for _, x := range dead {
		if reach[x] {
			wantDead[x] = true
			if _, ownee := own.OwnerOf[x]; !ownee {
				tally.deadInSubtree++
			}
		}
	}

	checked0 := vm.Engine().Stats().OwneesChecked
	vm.Collect()
	got := map[core.Kind]map[heap.Addr]bool{core.KindOwnedBy: {}, core.KindImproperOwnership: {}, core.KindDead: {}}
	for _, v := range rep.Violations() {
		set, ok := got[v.Kind]
		if !ok || set[v.Object] {
			t.Fatalf("seed %d: unexpected or duplicate violation:\n%s", seed, v.String())
		}
		set[v.Object] = true
		for i := 0; i+1 < len(v.Path); i++ {
			if !g.HasEdge(v.Path[i].Addr, v.Path[i+1].Addr) {
				t.Fatalf("seed %d: reported path has no edge %#x -> %#x:\n%s", seed, uint32(v.Path[i].Addr), uint32(v.Path[i+1].Addr), v.String())
			}
		}
		if n := len(v.Path); n == 0 || v.Path[n-1].Addr != v.Object {
			t.Fatalf("seed %d: reported path does not end at the object:\n%s", seed, v.String())
		}
	}
	sameSet(t, "assert-ownedby", got[core.KindOwnedBy], want.OwnedBy)
	sameSet(t, "improper-ownership", got[core.KindImproperOwnership], want.Improper)
	sameSet(t, "assert-dead", got[core.KindDead], wantDead)
	tally.ownedBy += len(want.OwnedBy)
	tally.improper += len(want.Improper)
	for x := range want.Improper {
		if wantDead[x] {
			tally.deadImproper++ // reported for both kinds in one collection
		}
	}
	if d := vm.Engine().Stats().OwneesChecked - checked0; d != want.Checked {
		t.Fatalf("seed %d: OwneesChecked grew by %d, model met %d ownee edges", seed, d, want.Checked)
	}
	for a := range g.Refs {
		if s.Contains(a) != want.Survivors[a] || want.Survivors[a] != reach[a] {
			t.Fatalf("seed %d: %#x: allocated=%v after the collection, model keeps %v, reachable %v",
				seed, uint32(a), s.Contains(a), want.Survivors[a], reach[a])
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("seed %d: heap invariant: %v", seed, err)
	}
	if err := vm.Engine().CheckOwneeTable(); err != nil {
		t.Fatalf("seed %d: side-table invariant: %v", seed, err)
	}
}
