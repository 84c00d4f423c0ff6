package main

import (
	"fmt"
	"time"

	"gcassert"
)

// gc-trace: a live graph of at least 32 MB — lists, trees, rings and
// chains with a shared tail, every node also pointing into an immortal
// shared pool — on which one op replaces 1/64 of the components and then
// forces a collection. The mark phase does nearly all the work. The
// primary side runs in Infrastructure mode with a light mix of passing
// AssertInstances / AssertUnshared / AssertDead and no ownership, so the
// assertion engine is reached through flagged edges during the mark and
// never through the ownership pre-phase.
type graphSizing struct {
	components int // table slots; each holds one component of 8..24 nodes
	pool       int // immortal shared leaves
	heapBytes  int
	ops        int // ops per half-round
	warmup     int // ops per side of each of the two warm-up passes inside set-up
}

var (
	graphFull  = graphSizing{components: 4096, pool: 1024, heapBytes: 48 << 20, ops: 60, warmup: 22}
	graphShort = graphSizing{components: 256, pool: 64, heapBytes: 4 << 20, ops: 4, warmup: 2}
)

const (
	graphMinNodes = 8
	graphMaxNodes = 24
	graphPad      = 56 // scalar payload fields: a node fills a 64-word cell
	// graphDealWindow is 16 heap blocks' worth of nodes (64 per block).
	graphDealWindow = 1024

	nodeA    = 0
	nodeB    = 1
	nodeLeaf = 2
	nodeID   = 3
)

type compKind uint8

const (
	compList compKind = iota
	compTree
	compRing  // a list whose tail points back at its second node
	compShare // a list whose every node also points at the shared tail
	numCompKinds
)

// compSpec is one generated component: which slot it goes in, its shape,
// its size and the seed of its pool references.
type compSpec struct {
	slot  int
	kind  compKind
	nodes int
	leafs uint64
}

func genComp(r *rng, slots int) compSpec {
	return compSpec{
		slot:  r.intn(slots),
		kind:  compKind(r.intn(int(numCompKinds))),
		nodes: graphMinNodes + r.intn(graphMaxNodes-graphMinNodes+1),
		leafs: r.next(),
	}
}

// graphModel is the independent oracle: it knows only how many nodes each
// slot's component has, and from that what a collection must leave live.
type graphModel struct {
	nodes      []int // per slot
	totalNodes int
	fixedObjs  uint64 // table, pool array, pool leaves
	fixedWords uint64
	nodeWords  uint64 // cell size of one node, measured at set-up
}

func (m *graphModel) replace(c compSpec) {
	m.totalNodes += c.nodes - m.nodes[c.slot]
	m.nodes[c.slot] = c.nodes
}

func (m *graphModel) live() (objs, words uint64) {
	return m.fixedObjs + uint64(m.totalNodes), m.fixedWords + uint64(m.totalNodes)*m.nodeWords
}

// graphSide is the graph on one runtime (Base or Infrastructure).
type graphSide struct {
	vm       *gcassert.Runtime
	th       *gcassert.Thread
	rep      *gcassert.CollectingReporter
	infra    bool
	tNode    gcassert.TypeID
	tLeaf    gcassert.TypeID
	gTable   int
	gPool    int
	gLeak    int
	pool     int
	nextID   uint64
	asserted uint64
	roots    uint64
	tr       *tracer
}

func newGraphSide(infra bool, sz graphSizing) *graphSide {
	g := &graphSide{infra: infra, pool: sz.pool}
	opts := gcassert.Options{HeapBytes: sz.heapBytes, Infrastructure: infra}
	if infra {
		g.rep = &gcassert.CollectingReporter{}
		opts.Reporter = g.rep
	}
	g.vm = gcassert.New(opts)
	fields := []gcassert.Field{
		{Name: "a", Ref: true}, {Name: "b", Ref: true}, {Name: "leaf", Ref: true}, {Name: "id"},
	}
	for i := 0; i < graphPad; i++ {
		fields = append(fields, gcassert.Field{Name: fmt.Sprintf("pad%d", i)})
	}
	g.tNode = g.vm.Define("bench/graph/Node", fields...)
	g.tLeaf = g.vm.Define("bench/graph/Leaf", gcassert.Field{Name: "v"})
	g.th = g.vm.NewThread("graph-main")
	g.gTable = g.vm.NewGlobal("table")
	g.gPool = g.vm.NewGlobal("pool")
	g.gLeak = g.vm.NewGlobal("leak")
	g.vm.SetGlobal(g.gTable, g.th.NewArray(gcassert.TRefArray, sz.components))
	pool := g.th.NewArray(gcassert.TRefArray, sz.pool)
	g.vm.SetGlobal(g.gPool, pool)
	for i := 0; i < sz.pool; i++ {
		leaf := g.th.New(g.tLeaf)
		g.vm.SetScalar(leaf, 0, uint64(i))
		g.vm.SetRefAt(pool, i, leaf)
	}
	if infra {
		g.vm.AssertInstances(g.tLeaf, int64(sz.pool))
		g.asserted++
	}
	return g
}

// build allocates the component's nodes, rooted in a frame of their own
// while it is under construction, and installs it, returning the head that
// was in its slot before.
func (g *graphSide) build(c compSpec) (old gcassert.Ref) {
	fr := g.th.Push(c.nodes)
	for i := 0; i < c.nodes; i++ {
		id := g.tr.beginLeaf(spAlloc)
		n := g.th.New(g.tNode)
		g.tr.end(id)
		fr.Set(i, n)
	}
	old = g.install(c, fr.Get)
	g.th.Pop()
	return old
}

// install links the component out of the nodes at(0..c.nodes-1) and stores
// its head in the component's slot.
func (g *graphSide) install(c compSpec, at func(int) gcassert.Ref) (old gcassert.Ref) {
	vm := g.vm
	pool := vm.GetGlobal(g.gPool)
	leafs := rng{s: c.leafs}
	for i := 0; i < c.nodes; i++ {
		vm.SetScalar(at(i), nodeID, g.nextID)
		g.nextID++
		vm.SetRef(at(i), nodeLeaf, vm.RefAt(pool, leafs.intn(g.pool)))
	}
	last := c.nodes - 1
	switch c.kind {
	case compTree:
		for i := 0; i < c.nodes; i++ {
			if l := 2*i + 1; l < c.nodes {
				vm.SetRef(at(i), nodeA, at(l))
			}
			if r := 2*i + 2; r < c.nodes {
				vm.SetRef(at(i), nodeB, at(r))
			}
		}
	default:
		for i := 0; i < last; i++ {
			vm.SetRef(at(i), nodeA, at(i+1))
		}
		switch c.kind {
		case compRing:
			vm.SetRef(at(last), nodeA, at(1))
		case compShare:
			for i := 0; i < last; i++ {
				vm.SetRef(at(i), nodeB, at(last))
			}
		}
	}
	table := vm.GetGlobal(g.gTable)
	old = vm.RefAt(table, c.slot)
	head := at(0)
	vm.SetRefAt(table, c.slot, head)
	if g.infra {
		// The head hangs off its table slot alone; whatever it replaced is
		// now garbage.
		g.asserted++
		id := g.tr.beginLeaf(spAssert)
		vm.AssertUnshared(head)
		g.tr.end(id)
		if old != gcassert.Nil {
			g.asserted++
			id := g.tr.beginLeaf(spAssert)
			vm.AssertDead(old)
			g.tr.end(id)
		}
	}
	return old
}

// populate builds the initial graph in the layout the workload settles into.
// An op frees about one cell per heap block, and the allocator fills blocks
// one after another, so the nodes of a component built later land one per
// block in a run of neighbouring blocks. A graph built component by
// component would start contiguous and slow down for a thousand ops as it
// scatters; one dealt in a fully random order would start too scattered and
// speed up. So all nodes are allocated first and dealt to the components in
// an order shuffled within windows of graphDealWindow nodes.
func (g *graphSide) populate(comps []compSpec, seed uint64) {
	total := 0
	for _, c := range comps {
		total += c.nodes
	}
	fr := g.th.Push(total)
	order := make([]int, total)
	for i := range order {
		fr.Set(i, g.th.New(g.tNode))
		order[i] = i
	}
	r := newRNG(seed)
	for lo := 0; lo < total; lo += graphDealWindow {
		w := order[lo:min(lo+graphDealWindow, total)]
		for i := len(w) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			w[i], w[j] = w[j], w[i]
		}
	}
	next := 0
	for _, c := range comps {
		mine := order[next : next+c.nodes]
		next += c.nodes
		g.install(c, func(i int) gcassert.Ref { return fr.Get(mine[i]) })
	}
	g.th.Pop()
}

func (g *graphSide) collect() gcassert.Collection {
	id := g.tr.begin(spCollect)
	c := g.vm.Collect()
	g.tr.end(id)
	g.roots += uint64(c.RootsScanned)
	return c
}

func (g *graphSide) counters() counters { return runtimeCounters(g.vm, g.roots, g.asserted) }

type graphWant struct{ objs, words uint64 }

type graphInstance struct {
	seed   uint64
	sz     graphSizing
	perOp  int
	side   [2]*graphSide
	model  graphModel
	opN    int          // next op number to generate
	specs  [][]compSpec // the current round's ops
	want   []graphWant
	roundN int
}

func setupGraph(seed uint64, short bool) (instance, error) {
	sz := graphFull
	if short {
		sz = graphShort
	}
	in := &graphInstance{seed: seed, sz: sz, perOp: sz.components / 64, roundN: noRound}
	in.model.nodes = make([]int, sz.components)
	for side := range in.side {
		g := newGraphSide(side == sidePrimary, sz)
		in.side[side] = g
		if side == sidePrimary {
			// The model takes cell sizes from the heap as built so far: one
			// node is allocated and dropped to read its cell size.
			fixed := g.vm.HeapStats()
			g.th.New(g.tNode)
			in.model.nodeWords = g.vm.HeapStats().LiveWords - fixed.LiveWords
			in.model.fixedObjs, in.model.fixedWords = fixed.LiveObjects, fixed.LiveWords
		} else {
			g.th.New(g.tNode) // keep both heaps' allocation histories identical
		}
	}
	r := newRNG(mix(seed, 0))
	comps := make([]compSpec, sz.components)
	for slot := range comps {
		comps[slot] = genComp(r, sz.components)
		comps[slot].slot = slot
		in.model.replace(comps[slot])
	}
	for _, g := range in.side {
		g.populate(comps, mix(seed, 1))
	}
	in.specs = make([][]compSpec, sz.ops)
	for i := range in.specs {
		in.specs[i] = make([]compSpec, in.perOp)
	}
	in.want = make([]graphWant, sz.ops)
	for w := 0; w < warmupPasses; w++ {
		for side := range in.side {
			var rec sideRec
			in.run(side, -1-w, sz.warmup, &rec, nil)
			if rec.failed > 0 {
				return nil, fmt.Errorf("gc-trace: %d warm-up collections disagreed with the model", rec.failed)
			}
		}
	}
	return in, nil
}

func (in *graphInstance) prepare(round, n int) {
	if in.roundN == round {
		return
	}
	in.roundN = round
	for i := range in.specs[:n] {
		r := newRNG(mix(in.seed, uint64(in.opN)+1))
		in.opN++
		for j := range in.specs[i] {
			c := genComp(r, in.sz.components)
			in.specs[i][j] = c
			in.model.replace(c)
		}
		objs, words := in.model.live()
		in.want[i] = graphWant{objs, words}
	}
}

func (in *graphInstance) half(side, round int, rec *sideRec, tr *tracer) {
	in.run(side, round, in.sz.ops, rec, tr)
}

// run performs n ops of the round on one side.
func (in *graphInstance) run(side, round, n int, rec *sideRec, tr *tracer) {
	in.prepare(round, n)
	g := in.side[side]
	g.tr = tr
	for i, specs := range in.specs[:n] {
		id := tr.startOp()
		t0 := time.Now()
		for _, c := range specs {
			g.build(c)
		}
		col := g.collect()
		ns := time.Since(t0).Nanoseconds()
		tr.end(id)
		ok := uint64(col.ObjectsLive) == in.want[i].objs && g.vm.HeapStats().LiveWords == in.want[i].words
		rec.op(ns, ok, tr != nil)
		rec.gcHitOps++
		rec.pauses = append(rec.pauses, float64(col.TotalTime.Nanoseconds()))
	}
	g.tr = nil
}

func (in *graphInstance) counters(side int) counters { return in.side[side].counters() }

func (in *graphInstance) layers(map[string]float64, [2]*sideRec, *tracer) {}

// epilogue plants two bugs on the Infrastructure side: a second table slot
// is pointed at another component's unshared head, and a replaced head is
// kept alive from a global. The next collection must report exactly one
// unshared and one dead violation, and nothing before that.
func (in *graphInstance) epilogue() (checks, failed int, violations uint64) {
	chk := checker{name: "gc-trace"}
	check := chk.check
	g := in.side[sidePrimary]
	check(g.vm.AssertionStats().Violations == 0, "%d violations before the planted bugs, want 0", g.vm.AssertionStats().Violations)
	if n, ok := g.vm.LiveInstances(g.tLeaf); ok {
		check(n == int64(in.sz.pool), "%d live pool leaves, want %d", n, in.sz.pool)
	}

	before := len(g.rep.Violations())
	table := g.vm.GetGlobal(g.gTable)
	// Share: slot 1 now also points at slot 0's head; slot 1's component dies.
	g.vm.SetRefAt(table, 1, g.vm.RefAt(table, 0))
	in.model.replace(compSpec{slot: 1, nodes: 0})
	// Leak: slot 2 is replaced, but its old head (asserted dead by build)
	// stays reachable from a global. Its whole component stays live with it.
	r := newRNG(mix(in.seed, ^uint64(0)))
	c := genComp(r, in.sz.components)
	c.slot = 2
	kept := in.model.nodes[2]
	in.model.replace(c)
	g.vm.SetGlobal(g.gLeak, g.build(c))
	col := g.collect()
	got := map[gcassert.Kind]int{}
	for _, v := range g.rep.Violations()[before:] {
		got[v.Kind]++
	}
	check(len(got) == 2 && got[gcassert.KindUnshared] == 1 && got[gcassert.KindDead] == 1,
		"planted bugs reported %v, want one %v and one %v", got, gcassert.KindUnshared, gcassert.KindDead)
	objs, _ := in.model.live()
	check(uint64(col.ObjectsLive) == objs+uint64(kept), "%d live objects after the planted bugs, model says %d", col.ObjectsLive, objs+uint64(kept))
	return chk.checks, chk.failed, uint64(len(g.rep.Violations()) - before)
}

func (in *graphInstance) close() {}
