package core_test

// Differential property test for the ownership registry. A seeded random
// mutator builds a graph, asserts random owner/ownee pairs (re-assigning
// ownees, nesting and overlapping regions), drops roots so ownees and owners
// die and their cells are reused, and collects. A naive model of the same
// heap in Go maps predicts, per full collection, the exact set of freed
// objects, the assert-ownedby and improper-ownership violation sets, the
// ownee-check count and OwnedPairsLive; after every sweep the ownee side
// table is checked against its invariant (DESIGN.md, side-table
// invariant 2) and the heap against its own (heap.Space.Verify, invariants
// 1 and 3–7).

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/rt"
)

const (
	propRoots  = 6
	propNodes  = 60
	propRounds = 8
	propSeeds  = 40
)

// ownModel is the oracle's copy of the heap and of the ownership registry.
type ownModel struct {
	edges   map[heap.Addr][2]heap.Addr // every allocated node the mutator made
	roots   []heap.Addr                // mirror of the frame's slots
	ownerOf map[heap.Addr]heap.Addr    // the naive registry
	order   []heap.Addr                // owners with a record, in creation order
}

func (m *ownModel) hasRecord(a heap.Addr) bool {
	for _, o := range m.order {
		if o == a {
			return true
		}
	}
	return false
}

// reachable is the plain closure from the roots.
func (m *ownModel) reachable() map[heap.Addr]bool {
	seen := map[heap.Addr]bool{}
	var work []heap.Addr
	for _, r := range m.roots {
		if r != heap.Nil && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		for _, t := range m.edges[a] {
			if t != heap.Nil && !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	return seen
}

// prediction is what one full collection must do.
type prediction struct {
	marked   map[heap.Addr]bool // the survivors
	ownedBy  map[heap.Addr]bool // expected assert-ownedby objects
	improper map[heap.Addr]bool // expected improper-ownership objects
	checked  uint64             // ownee edges met in the ownership phase
}

// predict runs the paper's trace order naively: a breadth-first region scan
// from each owner in record order (never marking the owner from its own
// scan, stopping at other owners and at anything an earlier scan marked,
// scanning through ownees), then the root scan over what is left.
func (m *ownModel) predict() prediction {
	p := prediction{marked: map[heap.Addr]bool{}, ownedBy: map[heap.Addr]bool{}, improper: map[heap.Addr]bool{}}
	owned := map[heap.Addr]bool{} // ownees some owner scan met (FlagOwned)
	for _, o := range m.order {
		work := []heap.Addr{o}
		for len(work) > 0 {
			a := work[0]
			work = work[1:]
			for _, t := range m.edges[a] {
				switch asserted, ownee := m.ownerOf[t]; {
				case t == heap.Nil || t == o:
				case ownee:
					p.checked++
					if asserted != o {
						p.improper[t] = true
					}
					owned[t] = true
					if !p.marked[t] {
						p.marked[t] = true
						work = append(work, t)
					}
				case m.hasRecord(t):
					p.marked[t] = true
				case !p.marked[t]:
					p.marked[t] = true
					work = append(work, t)
				}
			}
		}
	}
	var work []heap.Addr
	meet := func(t heap.Addr) {
		if _, ownee := m.ownerOf[t]; ownee && !owned[t] {
			p.ownedBy[t] = true
			owned[t] = true
		}
		if !p.marked[t] {
			p.marked[t] = true
			work = append(work, t)
		}
	}
	for _, r := range m.roots {
		if r != heap.Nil {
			meet(r)
		}
	}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		for _, t := range m.edges[a] {
			if t != heap.Nil {
				meet(t)
			}
		}
	}
	return p
}

// sweep applies a collection's outcome to the model: objects for which
// alive is false are gone, and the registry is pruned the way pruneWeak
// prunes it — a dead owner dissolves its whole relation, a live one loses
// its dead ownees, and a record left without ownees is dropped.
func (m *ownModel) sweep(alive func(heap.Addr) bool) {
	live := map[heap.Addr]int{}
	for oe, o := range m.ownerOf {
		if !alive(oe) || !alive(o) {
			delete(m.ownerOf, oe)
		} else {
			live[o]++
		}
	}
	keep := m.order[:0]
	for _, o := range m.order {
		if live[o] > 0 {
			keep = append(keep, o)
		}
	}
	m.order = keep
	for a := range m.edges {
		if !alive(a) {
			delete(m.edges, a)
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
	w.model = ownModel{edges: map[heap.Addr][2]heap.Addr{}, roots: make([]heap.Addr, propRoots), ownerOf: map[heap.Addr]heap.Addr{}}
	return w
}

func (w *ownWorld) nodes() []heap.Addr {
	out := make([]heap.Addr, 0, len(w.model.edges))
	for a := range w.model.edges {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (w *ownWorld) newNode() heap.Addr {
	a := w.th.New(w.node)
	if _, dup := w.model.edges[a]; dup {
		w.t.Fatalf("allocator handed out live address %#x", uint32(a))
	}
	if w.deadOwnees[a] {
		w.tally.owneeCellReuse++
		delete(w.deadOwnees, a)
	}
	w.model.edges[a] = [2]heap.Addr{}
	return a
}

func (w *ownWorld) setEdge(a heap.Addr, slot int, t heap.Addr) {
	w.vm.Space().SetRef(a, slot, t)
	e := w.model.edges[a]
	e[slot] = t
	w.model.edges[a] = e
}

func (w *ownWorld) setRoot(i int, a heap.Addr) {
	w.fr.Set(i, a)
	w.model.roots[i] = a
}

func (w *ownWorld) assertOwnedBy(owner, ownee heap.Addr) {
	m := &w.model
	if prev, ok := m.ownerOf[ownee]; ok && prev != owner {
		w.tally.reassigned++
	}
	if !m.hasRecord(owner) {
		m.order = append(m.order, owner)
		if w.deadOwners[owner] {
			w.tally.ownerAddrReuse++
			delete(w.deadOwners, owner)
		}
	}
	m.ownerOf[ownee] = owner
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
	reach := w.model.reachable()
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
		if _, ok := w.model.ownerOf[a]; ok {
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
	if got, want := eng.OwnedPairsLive(), len(w.model.ownerOf); got != want {
		w.t.Fatalf("%s: OwnedPairsLive = %d, model has %d", when, got, want)
	}
}

// noteDeaths records registered objects about to disappear, given which
// objects survive.
func (w *ownWorld) noteDeaths(alive func(heap.Addr) bool) {
	for oe, o := range w.model.ownerOf {
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
	m.roots = m.roots[:propRoots]
	want := m.predict()
pin:
	for _, a := range w.nodes() {
		for _, tgt := range m.edges[a] {
			if want.marked[a] && tgt != heap.Nil && !want.marked[tgt] {
				w.fr.Add(tgt)
				m.roots = append(m.roots, tgt)
				want = m.predict()
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
		if owner := fmt.Sprintf("@%#x", uint32(m.ownerOf[v.Object])); !strings.Contains(v.Message, owner) {
			t.Fatalf("%s on %#x does not name asserted owner %s: %q", v.Kind, uint32(v.Object), owner, v.Message)
		}
		for i := 0; i+1 < len(v.Path); i++ {
			if e := m.edges[v.Path[i].Addr]; e[0] != v.Path[i+1].Addr && e[1] != v.Path[i+1].Addr {
				t.Fatalf("reported path has no edge %#x -> %#x:\n%s", uint32(v.Path[i].Addr), uint32(v.Path[i+1].Addr), v.String())
			}
		}
		if n := len(v.Path); n == 0 || v.Path[n-1].Addr != v.Object {
			t.Fatalf("reported path does not end at the object:\n%s", v.String())
		}
	}
	sameSet(t, "assert-ownedby", got[core.KindOwnedBy], want.ownedBy)
	sameSet(t, "improper-ownership", got[core.KindImproperOwnership], want.improper)
	w.tally.ownedBy += len(want.ownedBy)
	w.tally.improper += len(want.improper)
	if d := w.vm.Engine().Stats().OwneesChecked - checked0; d != want.checked {
		t.Fatalf("OwneesChecked grew by %d, model met %d ownee edges", d, want.checked)
	}
	for a := range m.edges {
		if w.vm.Space().Contains(a) != want.marked[a] {
			t.Fatalf("%#x: allocated=%v after the collection, model says %v", uint32(a), !want.marked[a], want.marked[a])
		}
	}
	alive := func(a heap.Addr) bool { return want.marked[a] }
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
}
