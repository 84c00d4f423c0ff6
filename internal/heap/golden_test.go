package heap

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// allocationOrderGolden is the FNV-1a hash of every address the mix below
// was handed, recorded at the commit before PR 22 (threaded per-block free
// lists rebuilt in address order by every sweep). Bitmap allocation must
// hand out the same addresses in the same order: benchmark/'s layouts
// (gc-trace's "settled" deal, embed-db's blocks) depend on address-ordered
// reuse.
const allocationOrderGolden = uint64(0x79ce56da3d2d5b73)

// TestAllocationOrderGolden runs a seeded 40-round alloc/retain/sweep mix
// over every size class and large spans and hashes each returned address
// (Nil for each refused request) in order.
func TestAllocationOrderGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := NewSpace(NewRegistry(), 6<<20)
	h := fnv.New64a()
	put := func(a Addr) {
		h.Write([]byte{byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24)})
	}
	var live []Addr
	for round := 0; round < 40; round++ {
		for i := 0; i < 1500; i++ {
			// Word arrays of n elements occupy n+1 words: every class
			// boundary is hit, and one allocation in 25 is a 1–3 block span.
			n := classSizes[rng.Intn(numClasses)] - 1 - rng.Intn(2)
			switch rng.Intn(25) {
			case 0:
				n = maxSmallWords + rng.Intn(3*BlockWords)
			case 1, 2, 3:
				n = rng.Intn(8)
			}
			a, ok := s.Allocate(TWordArray, n)
			put(a) // Nil on failure: which requests the heap refuses is part of the order
			if ok {
				live = append(live, a)
			}
		}
		// Retain a round-dependent share.
		keep := live[:0]
		for _, a := range live {
			if rng.Intn(100) < 15+round%4*20 {
				s.SetMark(a)
				keep = append(keep, a)
			}
		}
		live = keep
		s.Sweep()
	}
	if got := h.Sum64(); got != allocationOrderGolden {
		t.Fatalf("allocation order hash = %#x, want %#x", got, allocationOrderGolden)
	}
}
