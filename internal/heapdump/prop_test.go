package heapdump_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gcassert"
	"gcassert/internal/heap"
)

// TestCensusReconcilesWithSweep is the introspection layer's core invariant,
// checked property-style over randomized object graphs on the full runtime
// stack: after every collection, the census snapshot's per-type totals must
// equal an independent post-sweep walk of the heap, and its grand totals
// must equal both the Collection record's ObjectsLive and the allocator's
// LiveWords. On Infrastructure seeds rooted nodes also assert ownership of
// objects they point at, so part of the live set is marked by the ownership
// pre-phase alone, which the main trace skips as already marked: the census
// must count those objects too.
func TestCensusReconcilesWithSweep(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		infra := seed%2 == 0 // cover both trace configurations
		vm := gcassert.New(gcassert.Options{
			HeapBytes:      4 << 20,
			Infrastructure: infra,
			Introspection:  true,
		})
		// A mix of shapes: plain nodes, ref arrays, word arrays.
		node := vm.Define("Node",
			gcassert.Field{Name: "a", Ref: true},
			gcassert.Field{Name: "b", Ref: true},
			gcassert.Field{Name: "v"})
		th := vm.NewThread("main")
		fr := th.Push(24)

		for round := 0; round < 5; round++ {
			// Allocate a random graph rooted in a random subset of slots.
			for i := 0; i < 200; i++ {
				var a gcassert.Ref
				switch rng.Intn(3) {
				case 0:
					a = th.New(node)
				case 1:
					a = th.NewArray(gcassert.TRefArray, rng.Intn(20))
				default:
					a = th.NewArray(gcassert.TWordArray, rng.Intn(64))
				}
				fr.Set(rng.Intn(24), a)
				// Random edges from rooted nodes into the new object. Every
				// edge but a self-loop points from an older object to a
				// newer one, so no owner is reachable from the region it
				// owns (the pre-phase frees such an owner; see ROADMAP).
				for j := 0; j < 24; j++ {
					src := fr.Get(j)
					if src == gcassert.Nil || rng.Intn(8) != 0 {
						continue
					}
					switch vm.Space().TypeOf(src) {
					case node:
						vm.SetRef(src, rng.Intn(2), a)
						if infra && src != a && rng.Intn(2) == 0 {
							vm.AssertOwnedBy(src, a)
						}
					case gcassert.TRefArray:
						if n := vm.ArrayLen(src); n > 0 {
							vm.SetRefAt(src, rng.Intn(n), a)
						}
					}
				}
			}
			// Drop a random subset of roots, then collect.
			for j := 0; j < 24; j++ {
				if rng.Intn(3) == 0 {
					fr.Set(j, gcassert.Nil)
				}
			}
			col := vm.Collect()
			snap, ok := vm.LatestCensus()
			if !ok {
				t.Logf("seed %d round %d: no census snapshot", seed, round)
				return false
			}

			// Grand totals against the collection record and the allocator.
			if snap.GC != col.Seq || snap.TotalObjects != uint64(col.ObjectsLive) {
				t.Logf("seed %d round %d: census %d objects @gc%d, collection %d @gc%d",
					seed, round, snap.TotalObjects, snap.GC, col.ObjectsLive, col.Seq)
				return false
			}
			hs := vm.HeapStats()
			if snap.TotalCellWords != hs.LiveWords {
				t.Logf("seed %d round %d: census %d cell words, allocator %d",
					seed, round, snap.TotalCellWords, hs.LiveWords)
				return false
			}
			if snap.TotalObjects != uint64(hs.LiveObjects) {
				t.Logf("seed %d round %d: census %d objects, allocator %d",
					seed, round, snap.TotalObjects, hs.LiveObjects)
				return false
			}

			// Per-type totals against an independent post-sweep heap walk.
			space := vm.Space()
			type tot struct{ objects, words, cellWords uint64 }
			walk := map[heap.TypeID]*tot{}
			space.ForEachObject(func(a gcassert.Ref) bool {
				tt := space.TypeOf(a)
				w := walk[tt]
				if w == nil {
					w = &tot{}
					walk[tt] = w
				}
				w.objects++
				w.words += uint64(space.Registry().Info(tt).SizeWords(space.ArrayLen(a)))
				w.cellWords += uint64(space.CellWords(a))
				return true
			})
			if len(walk) != len(snap.Types) {
				t.Logf("seed %d round %d: walk has %d types, census %d", seed, round, len(walk), len(snap.Types))
				return false
			}
			for i := range snap.Types {
				row := &snap.Types[i]
				w := walk[row.Type]
				if w == nil || w.objects != row.Objects || w.words != row.Words || w.cellWords != row.CellWords {
					t.Logf("seed %d round %d: type %s census {%d %d %d} walk %+v",
						seed, round, row.TypeName, row.Objects, row.Words, row.CellWords, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCensusConcurrentReaders hammers the snapshot ring from reader
// goroutines while the runtime collects — the scrape-while-running contract,
// meaningful mainly under -race.
func TestCensusConcurrentReaders(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      1 << 20,
		Introspection:  true,
		CensusRingSize: 8,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink int
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range vm.CensusSnapshots() {
					sink += len(s.Types)
				}
				if s, ok := vm.LatestCensus(); ok {
					sink += int(s.TotalObjects)
				}
				sink += len(vm.Census().Suspects(0, 3))
				_ = sink
			}
		}()
	}
	for i := 0; i < 200; i++ {
		head := th.New(node)
		vm.SetRef(head, 0, fr.Get(0))
		fr.Set(0, head)
		if i%10 == 0 {
			vm.Collect()
		}
	}
	close(stop)
	wg.Wait()
	if _, ok := vm.LatestCensus(); !ok {
		t.Fatal("no census snapshots after collections")
	}
}
