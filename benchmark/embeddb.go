package main

import (
	"fmt"
	"time"

	"gcassert"
)

// embed-db: a _209_db-style in-memory database driven through the public
// gcassert API. Every entry is asserted owned by the database and every
// removed entry asserted dead — the paper's Fig. 4/5 configuration — and
// all of those assertions pass.
//
// One op is a batch of dbBatchOps seeded find/add/remove/scan operations.
// A batch holds exactly as many adds as removes, so the database is back at
// dbEntries after every batch and the collection period cannot drift with
// a random walk of the live size.
const (
	dbBatchOps = 2048
	dbFinds    = 820
	dbAdds     = 573
	dbRemoves  = 573
	dbScans    = dbBatchOps - dbFinds - dbAdds - dbRemoves
	dbScanSpan = 64 // entries one scan touches
	dbFindSpan = 16 // entries one find probes
	dbFields   = 3  // payload strings per entry
)

// dbSizing is what the full-size and the short (test) runs differ in.
type dbSizing struct {
	entries   int // steady-state database size
	heapBytes int
	batches   int // ops (batches) per half-round
	warmup    int // ops per side of each of the two warm-up passes inside set-up
}

var (
	dbFull  = dbSizing{entries: 100_000, heapBytes: 31 << 20, batches: 95, warmup: 40}
	dbShort = dbSizing{entries: 4_000, heapBytes: 2 << 20, batches: 4, warmup: 2}
)

type dbOpKind uint8

const (
	dbFind dbOpKind = iota
	dbAdd
	dbRemove
	dbScan
)

// dbOp is one generated database operation. a and b are its seeded
// arguments: find(key a, start b), add(key a, string lengths b),
// remove(index a), scan(start a).
type dbOp struct {
	kind dbOpKind
	a, b uint64
}

// genBatch fills ops with batch number n of the seed's op sequence: the
// fixed multiset of operations in a seeded order with seeded arguments.
func genBatch(seed uint64, n int, ops []dbOp) {
	r := newRNG(mix(seed, uint64(n)+1))
	i := 0
	for k, c := range [...]int{dbFinds, dbAdds, dbRemoves, dbScans} {
		for j := 0; j < c; j++ {
			ops[i] = dbOp{kind: dbOpKind(k)}
			i++
		}
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	for i := range ops {
		ops[i].a, ops[i].b = r.next(), r.next()
	}
}

// strLen derives payload string i's length (4..11 words) from an add's b.
func strLen(b uint64, i int) int { return 4 + int(b>>(8*uint(i)))&7 }

// payloadWord is the content of word j of string i of entry id.
func payloadWord(id uint64, i, j int) uint64 { return mix(id, uint64(i*16+j)) }

// dbModel is the independent oracle: the same database in plain Go slices.
// It answers, per batch, the entry count and a checksum over every find
// result and scan sum.
type dbModel struct {
	key, first []uint64 // per entry: sort key, first payload word
	nextID     uint64
}

func (m *dbModel) add(key uint64) {
	m.key = append(m.key, key%1_000_000)
	m.first = append(m.first, payloadWord(m.nextID, 0, 0))
	m.nextID++
}

func (m *dbModel) apply(ops []dbOp) (count int, sum uint64) {
	for _, op := range ops {
		n := len(m.key)
		switch op.kind {
		case dbFind:
			key, start := op.a%1_000_000, int(op.b%uint64(n))
			hit := uint64(0)
			for i := 0; i < dbFindSpan; i++ {
				if m.key[(start+i)%n] <= key {
					hit = uint64((start+i)%n) + 1
					break
				}
			}
			sum += hit
		case dbAdd:
			m.add(op.a)
		case dbRemove:
			i := int(op.a % uint64(n))
			m.key[i], m.first[i] = m.key[n-1], m.first[n-1]
			m.key, m.first = m.key[:n-1], m.first[:n-1]
		case dbScan:
			start := int(op.a % uint64(n))
			for i := 0; i < dbScanSpan; i++ {
				sum += m.first[(start+i)%n]
			}
		}
	}
	return len(m.key), sum
}

// Managed field slots.
const (
	dbfEntries = 0 // Database.entries: TRefArray
	dbfN       = 1 // Database.n

	entFields = 0 // Entry.fields: TRefArray of TWordArray strings
	entKey    = 1
	entID     = 2
)

// dbSide is the database on one runtime (Base or WithAssertions).
type dbSide struct {
	vm       *gcassert.Runtime
	th       *gcassert.Thread
	fr       *gcassert.Frame
	rep      *gcassert.CollectingReporter
	asserts  bool
	tDB      gcassert.TypeID
	tEntry   gcassert.TypeID
	global   int
	leak     int // global slot the planted bug parks a removed entry in
	nextID   uint64
	asserted uint64 // Assert* calls made
	roots    uint64 // Σ RootsScanned over observed collections
	seenGCs  uint64
	tr       *tracer
}

func newDBSide(asserts bool, sz dbSizing) *dbSide {
	d := &dbSide{asserts: asserts}
	opts := gcassert.Options{HeapBytes: sz.heapBytes, Infrastructure: asserts}
	if asserts {
		d.rep = &gcassert.CollectingReporter{}
		opts.Reporter = d.rep
	}
	d.vm = gcassert.New(opts)
	d.tDB = d.vm.Define("bench/db/Database",
		gcassert.Field{Name: "entries", Ref: true},
		gcassert.Field{Name: "n"})
	d.tEntry = d.vm.Define("bench/db/Entry",
		gcassert.Field{Name: "fields", Ref: true},
		gcassert.Field{Name: "key"},
		gcassert.Field{Name: "id"})
	d.th = d.vm.NewThread("db-main")
	d.global = d.vm.NewGlobal("database")
	d.leak = d.vm.NewGlobal("leak")
	db := d.th.New(d.tDB)
	d.vm.SetGlobal(d.global, db)
	// Adds and removes balance inside a batch, but adds may run ahead of
	// removes within one, so leave room for a batch's worth.
	d.vm.SetRef(db, dbfEntries, d.th.NewArray(gcassert.TRefArray, sz.entries+dbAdds))
	return d
}

// alloc and allocArray are the traced seams round Thread.New*.
func (d *dbSide) alloc(t gcassert.TypeID) gcassert.Ref {
	id := d.tr.beginLeaf(spAlloc)
	a := d.th.New(t)
	d.tr.end(id)
	return a
}

func (d *dbSide) allocArray(t gcassert.TypeID, n int) gcassert.Ref {
	id := d.tr.beginLeaf(spAlloc)
	a := d.th.NewArray(t, n)
	d.tr.end(id)
	return a
}

// assertOwned and assertDead are the traced seams round the Assert*
// registration calls; the Base side has no assertion engine and skips them.
func (d *dbSide) assertOwned(owner, ownee gcassert.Ref) {
	if !d.asserts {
		return
	}
	d.asserted++
	id := d.tr.beginLeaf(spAssert)
	d.vm.AssertOwnedBy(owner, ownee)
	d.tr.end(id)
}

func (d *dbSide) assertDead(e gcassert.Ref) {
	if !d.asserts {
		return
	}
	d.asserted++
	id := d.tr.beginLeaf(spAssert)
	d.vm.AssertDead(e)
	d.tr.end(id)
}

func (d *dbSide) add(key, lens uint64) {
	vm := d.vm
	// The new entry is rooted in a frame of its own until the table holds
	// it, the way a mutator function's local would be.
	fr := d.th.Push(1)
	e := d.alloc(d.tEntry)
	fr.Set(0, e)
	id := d.nextID
	d.nextID++
	vm.SetScalar(e, entKey, key%1_000_000)
	vm.SetScalar(e, entID, id)
	flds := d.allocArray(gcassert.TRefArray, dbFields)
	vm.SetRef(e, entFields, flds)
	for i := 0; i < dbFields; i++ {
		n := strLen(lens, i)
		s := d.allocArray(gcassert.TWordArray, n)
		vm.SetRefAt(flds, i, s)
		for j := 0; j < n; j++ {
			vm.SetWordAt(s, j, payloadWord(id, i, j))
		}
	}
	db := vm.GetGlobal(d.global)
	n := int(vm.GetScalar(db, dbfN))
	vm.SetRefAt(vm.GetRef(db, dbfEntries), n, e)
	vm.SetScalar(db, dbfN, uint64(n+1))
	d.th.Pop()
	d.assertOwned(db, e)
}

// remove swap-removes entry i and asserts it dead. With leak set the
// removed entry is also parked in a global — the planted bug.
func (d *dbSide) remove(i int, leak bool) {
	vm := d.vm
	db := vm.GetGlobal(d.global)
	entries := vm.GetRef(db, dbfEntries)
	n := int(vm.GetScalar(db, dbfN))
	e := vm.RefAt(entries, i)
	vm.SetRefAt(entries, i, vm.RefAt(entries, n-1))
	vm.SetRefAt(entries, n-1, gcassert.Nil)
	vm.SetScalar(db, dbfN, uint64(n-1))
	if leak {
		vm.SetGlobal(d.leak, e)
	}
	d.assertDead(e)
}

func (d *dbSide) apply(ops []dbOp) (count int, sum uint64) {
	vm := d.vm
	for _, op := range ops {
		db := vm.GetGlobal(d.global)
		entries := vm.GetRef(db, dbfEntries)
		n := int(vm.GetScalar(db, dbfN))
		switch op.kind {
		case dbFind:
			key, start := op.a%1_000_000, int(op.b%uint64(n))
			hit := uint64(0)
			for i := 0; i < dbFindSpan; i++ {
				if vm.GetScalar(vm.RefAt(entries, (start+i)%n), entKey) <= key {
					hit = uint64((start+i)%n) + 1
					break
				}
			}
			sum += hit
		case dbAdd:
			d.add(op.a, op.b)
		case dbRemove:
			d.remove(int(op.a%uint64(n)), false)
		case dbScan:
			start := int(op.a % uint64(n))
			for i := 0; i < dbScanSpan; i++ {
				e := vm.RefAt(entries, (start+i)%n)
				sum += vm.WordAt(vm.RefAt(vm.GetRef(e, entFields), 0), 0)
			}
		}
	}
	return int(vm.GetScalar(vm.GetGlobal(d.global), dbfN)), sum
}

// observeGC notes collections that ran since the last call: their pauses
// and root counts come from the collector's record of the last cycle.
func (d *dbSide) observeGC(rec *sideRec) {
	gcs := d.vm.GCStats().Collections
	if gcs == d.seenGCs {
		return
	}
	last := d.vm.Collector().Last()
	if rec != nil {
		rec.gcHitOps++
		rec.pauses = append(rec.pauses, float64(last.TotalTime.Nanoseconds()))
	}
	if d.tr != nil && d.tr.fine {
		d.tr.gcInAllocNs += last.TotalTime.Nanoseconds() * int64(gcs-d.seenGCs)
	}
	d.roots += uint64(last.RootsScanned) * (gcs - d.seenGCs)
	d.seenGCs = gcs
}

func (d *dbSide) counters() counters { return runtimeCounters(d.vm, d.roots, d.asserted) }

// dbInstance pairs a Base and a WithAssertions database with the model.
type dbInstance struct {
	seed   uint64
	sz     dbSizing
	side   [2]*dbSide
	model  dbModel
	batch  int      // next batch number to generate
	ops    [][]dbOp // the current round's batches
	want   []dbWant // the model's answer per batch
	roundN int      // round the buffers hold
}

type dbWant struct {
	count int
	sum   uint64
}

func setupDB(seed uint64, short bool) (instance, error) {
	sz := dbFull
	if short {
		sz = dbShort
	}
	in := &dbInstance{seed: seed, sz: sz, roundN: noRound}
	in.side[sideBase] = newDBSide(false, sz)
	in.side[sidePrimary] = newDBSide(true, sz)
	r := newRNG(mix(seed, 0))
	for i := 0; i < sz.entries; i++ {
		key, lens := r.next(), r.next()
		in.model.add(key)
		for _, s := range in.side {
			s.add(key, lens)
		}
	}
	in.ops = make([][]dbOp, sz.batches)
	for i := range in.ops {
		in.ops[i] = make([]dbOp, dbBatchOps)
	}
	in.want = make([]dbWant, sz.batches)
	for w := 0; w < warmupPasses; w++ {
		for side := range in.side {
			var rec sideRec
			in.run(side, -1-w, sz.warmup, &rec, nil)
			if rec.failed > 0 {
				return nil, fmt.Errorf("embed-db: %d warm-up batches disagreed with the model", rec.failed)
			}
		}
	}
	return in, nil
}

// prepare generates the round's n batches and the model's answers once;
// both sides then replay the identical sequence.
func (in *dbInstance) prepare(round, n int) {
	if in.roundN == round {
		return
	}
	in.roundN = round
	for i := range in.ops[:n] {
		genBatch(in.seed, in.batch, in.ops[i])
		in.batch++
		c, s := in.model.apply(in.ops[i])
		in.want[i] = dbWant{c, s}
	}
}

func (in *dbInstance) half(side, round int, rec *sideRec, tr *tracer) {
	in.run(side, round, in.sz.batches, rec, tr)
}

// run replays n batches of the round on one side.
func (in *dbInstance) run(side, round, n int, rec *sideRec, tr *tracer) {
	in.prepare(round, n)
	d := in.side[side]
	d.tr = tr
	d.observeGC(nil)
	for i, ops := range in.ops[:n] {
		id := tr.startOp()
		t0 := time.Now()
		count, sum := d.apply(ops)
		ns := time.Since(t0).Nanoseconds()
		tr.end(id)
		rec.op(ns, count == in.want[i].count && sum == in.want[i].sum, tr != nil)
		d.observeGC(rec)
	}
	d.tr = nil
}

func (in *dbInstance) counters(side int) counters { return in.side[side].counters() }

func (in *dbInstance) layers(map[string]float64, [2]*sideRec, *tracer) {}

// epilogue checks the final state against the model and then plants the
// bug: one removed entry stays referenced from a global. The next
// collection must report exactly that entry, once as asserted-dead-but-
// reachable and once as reachable-but-not-through-its-owner.
func (in *dbInstance) epilogue() (checks, failed int, violations uint64) {
	chk := checker{name: "embed-db"}
	check := chk.check
	p := in.side[sidePrimary]
	for side, d := range in.side {
		d.vm.Collect()
		hs := d.vm.HeapStats()
		// Live after a full collection: the database, its table, and per
		// entry the entry, its field array and its strings.
		want := uint64(2 + len(in.model.key)*(2+dbFields))
		check(hs.LiveObjects == want, "side %d: %d live objects after collect, model says %d", side, hs.LiveObjects, want)
	}
	check(p.vm.AssertionStats().Violations == 0, "%d violations before the planted bug, want 0", p.vm.AssertionStats().Violations)

	before := len(p.rep.Violations())
	p.remove(0, true)
	p.vm.Collect()
	got := map[gcassert.Kind]int{}
	for _, v := range p.rep.Violations()[before:] {
		got[v.Kind]++
	}
	check(len(got) == 2 && got[gcassert.KindDead] == 1 && got[gcassert.KindOwnedBy] == 1,
		"planted leak reported %v, want one %v and one %v", got, gcassert.KindDead, gcassert.KindOwnedBy)
	return chk.checks, chk.failed, uint64(len(p.rep.Violations()) - before)
}

func (in *dbInstance) close() {}
