package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllocSweepModel drives the allocator with a randomized alloc/retain/
// sweep workload against a Go-side model: after every sweep, exactly the
// retained objects exist, their contents are intact, the stats balance and
// Verify holds. It runs a fixed seed list, then quick.Check's random seeds;
// every failure logs its seed.
func TestAllocSweepModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		s := NewSpace(reg, 4<<20)
		type obj struct {
			addr  Addr
			size  int
			stamp uint64
		}
		live := map[Addr]*obj{}
		for round := 0; round < 6; round++ {
			// Allocate a batch of word arrays of random sizes (some large).
			for i := 0; i < 300; i++ {
				n := rng.Intn(300)
				if rng.Intn(20) == 0 {
					n = BlockWords + rng.Intn(BlockWords)
				}
				a, ok := s.Allocate(TWordArray, n)
				if !ok {
					// Heap full: acceptable; stop allocating this round.
					break
				}
				if _, clash := live[a]; clash {
					t.Logf("seed %d: address %v handed out twice", seed, a)
					return false
				}
				stamp := rng.Uint64()
				if n > 0 {
					s.SetWordAt(a, 0, stamp)
					s.SetWordAt(a, n-1, stamp)
				}
				live[a] = &obj{addr: a, size: n, stamp: stamp}
			}
			// Retain a random subset; everything else dies at the sweep.
			for a, o := range live {
				if rng.Intn(2) == 0 {
					s.SetMark(a)
				} else {
					delete(live, a)
					_ = o
				}
			}
			res := s.Sweep()
			if res.ObjectsLive != len(live) {
				t.Logf("seed %d round %d: sweep live=%d model=%d", seed, round, res.ObjectsLive, len(live))
				return false
			}
			if err := s.Verify(); err != nil {
				t.Logf("seed %d round %d: Verify: %v", seed, round, err)
				return false
			}
			// Contents of survivors are intact; addresses valid.
			for a, o := range live {
				if !s.Contains(a) {
					t.Logf("seed %d: survivor %v vanished", seed, a)
					return false
				}
				if s.ArrayLen(a) != o.size {
					t.Logf("seed %d: size corrupted", seed)
					return false
				}
				if o.size > 0 && (s.WordAt(a, 0) != o.stamp || s.WordAt(a, o.size-1) != o.stamp) {
					t.Logf("seed %d: contents corrupted", seed)
					return false
				}
			}
			st := s.Stats()
			if st.LiveObjects != uint64(len(live)) {
				t.Logf("seed %d: stats.LiveObjects=%d model=%d", seed, st.LiveObjects, len(live))
				return false
			}
			if st.LiveWords > uint64(s.CapacityWords()) {
				t.Logf("seed %d: LiveWords=%d exceeds capacity (underflow?)", seed, st.LiveWords)
				return false
			}
		}
		return true
	}
	for _, seed := range []int64{0, 1, 2, 22, -7, 1 << 40} {
		if !prop(seed) {
			t.Errorf("failed on fixed seed %d", seed)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestFreeListNoOverlap allocates until exhaustion, frees everything, and
// re-allocates with different size classes — no two live objects may ever
// share storage.
func TestFreeListNoOverlap(t *testing.T) {
	reg := NewRegistry()
	s := NewSpace(reg, 1<<20)
	sizes := []int{1, 5, 30, 120, 250}
	var addrs []Addr
	rng := rand.New(rand.NewSource(5))
	for i := 0; ; i++ {
		a, ok := s.Allocate(TWordArray, sizes[rng.Intn(len(sizes))])
		if !ok {
			break
		}
		addrs = append(addrs, a)
	}
	s.Sweep() // free everything
	// Re-fill with a different mix, stamping each object.
	type span struct{ start, end uint32 }
	var spans []span
	for i := 0; ; i++ {
		n := sizes[rng.Intn(len(sizes))]
		a, ok := s.Allocate(TWordArray, n)
		if !ok {
			break
		}
		for j := 0; j < n; j++ {
			s.SetWordAt(a, j, uint64(i))
		}
		spans = append(spans, span{uint32(a), uint32(a) + uint32((n+1)*WordBytes)})
	}
	// Verify stamps: if storage overlapped, a later object clobbered an
	// earlier one's stamp.
	idx := 0
	s.ForEachObject(func(a Addr) bool {
		idx++
		return true
	})
	if idx != len(spans) {
		t.Fatalf("object count %d != %d", idx, len(spans))
	}
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].start < spans[j].end && spans[j].start < spans[i].end {
				t.Fatalf("overlapping objects: %+v %+v", spans[i], spans[j])
			}
		}
	}
}
