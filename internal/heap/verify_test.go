package heap

import (
	"strings"
	"testing"
)

// verifyWorld builds a heap in the state Verify is meant for: small cells of
// three classes and a large span, half of them swept away, a side table with
// entries on survivors.
func verifyWorld(t *testing.T) (s *Space, tab *CellTable, survivor Addr) {
	t.Helper()
	ts, small, big := tableSpace(t)
	s = NewSpace(ts.Registry(), 8*BlockBytes) // room for the two-block span
	tab = s.NewCellTable()
	for i := 0; i < 300; i++ {
		for _, typ := range []TypeID{small, big} {
			a := mustAlloc(t, s, typ, 0)
			if i%2 == 0 {
				s.SetMark(a)
				tab.Set(a, uint32(i+1))
				survivor = a
			}
		}
	}
	s.SetMark(mustAlloc(t, s, TWordArray, 2)) // three-word cells: a class with pad bits
	s.SetMark(mustAlloc(t, s, TWordArray, BlockWords+3))
	s.Sweep()
	return s, tab, survivor
}

func TestVerifyHoldsThroughAllocAndSweep(t *testing.T) {
	s, _, _ := verifyWorld(t)
	check := func(when string) {
		t.Helper()
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after a sweep")
	for i := 0; i < 2000; i++ { // fills blocks (lazy partial pop) and carves new ones
		if _, ok := s.Allocate(TWordArray, i%9); !ok {
			break
		}
	}
	check("after allocation")
	s.ForEachObject(func(a Addr) bool { s.SetMark(a); return true })
	s.Sweep()
	check("after a sweep everything survived")
	s.Sweep()
	check("after everything died")
	if st := s.Stats(); st.LiveObjects != 0 || st.LiveWords != 0 {
		t.Fatalf("stats after everything died: %+v", st)
	}
}

// TestVerifyCatchesEachInvariant breaks one invariant at a time on a valid
// heap and expects Verify to name it.
func TestVerifyCatchesEachInvariant(t *testing.T) {
	// firstCarved finds a small-object block that has a free cell.
	firstCarved := func(s *Space) (uint32, *blockInfo) {
		for bi := range s.blocks {
			if b := &s.blocks[bi]; b.class >= 0 && int(b.liveCells) < s.cellsIn(uint32(bi)) {
				return uint32(bi), b
			}
		}
		t.Fatal("no carved block with a free cell")
		return 0, nil
	}
	cases := []struct {
		name, want string
		corrupt    func(s *Space, tab *CellTable, survivor Addr)
	}{
		{"3: liveCells disagrees with the bitmap", "alloc bits set", func(s *Space, _ *CellTable, _ Addr) {
			_, b := firstCarved(s)
			b.liveCells++
		}},
		{"3: a pad bit is clear", "pad bits", func(s *Space, _ *CellTable, _ Addr) {
			for bi := range s.blocks {
				if b := &s.blocks[bi]; b.class >= 0 && padBits[b.class] != 0 {
					b.allocBits[len(b.allocBits)-1] &^= 1 << 63
					return
				}
			}
			t.Fatal("no carved block of a class with pad bits")
		}},
		{"3: the cursor skips a free cell", "below cursor", func(s *Space, _ *CellTable, _ Addr) {
			_, b := firstCarved(s)
			b.cursor = int32(len(b.allocBits))
		}},
		{"4: a block with a free cell is on no partial list", "on partial", func(s *Space, _ *CellTable, _ Addr) {
			_, b := firstCarved(s)
			s.partial[b.class] = nil
		}},
		{"4: a free block is listed twice", "on freeBlocks 2 times", func(s *Space, _ *CellTable, _ Addr) {
			s.freeBlocks = append(s.freeBlocks, s.freeBlocks[0])
		}},
		{"4: a carved block is on the free list", "on freeBlocks 1 times", func(s *Space, _ *CellTable, _ Addr) {
			bi, _ := firstCarved(s)
			s.freeBlocks = append(s.freeBlocks, bi)
		}},
		{"5: LiveWords drifts", "stats say", func(s *Space, _ *CellTable, _ Addr) {
			s.stats.LiveWords--
		}},
		{"6: a mark outlives a sweep", "FlagMark", func(s *Space, _ *CellTable, survivor Addr) {
			s.SetMark(survivor)
		}},
		{"7: a table entry sits on a free cell", "on free cell", func(s *Space, tab *CellTable, survivor Addr) {
			b := &s.blocks[survivor.block()]
			ci := s.cellIndex(b, survivor)
			b.allocBits[ci>>6] &^= 1 << (ci & 63)
			b.liveCells--
			s.stats.LiveObjects--
			s.stats.LiveWords -= uint64(classSizes[b.class])
			if int32(ci>>6) < b.cursor {
				b.cursor = int32(ci >> 6)
			}
		}},
		{"7: Len miscounts", "Len()", func(_ *Space, tab *CellTable, _ Addr) {
			tab.n++
		}},
	}
	for _, tc := range cases {
		s, tab, survivor := verifyWorld(t)
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: heap invalid before corruption: %v", tc.name, err)
		}
		tc.corrupt(s, tab, survivor)
		if err := s.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestContainsRejectsBlockSlack: the words past a block's last cell are
// covered by pad bits, which are set but are not objects.
func TestContainsRejectsBlockSlack(t *testing.T) {
	s := NewSpace(NewRegistry(), 4*BlockBytes)
	a := mustAlloc(t, s, TWordArray, 2) // three-word cells: 1365 per block, one word of slack
	slack := blockStart(a.block()) + Addr(1365*3*WordBytes)
	if !s.Contains(a) || s.Contains(slack) || s.Contains(a+1) || s.Contains(a+3*WordBytes) {
		t.Fatalf("Contains: object %v, slack %v, unaligned %v, free neighbour %v",
			s.Contains(a), s.Contains(slack), s.Contains(a+1), s.Contains(a+3*WordBytes))
	}
}

// TestNewSpaceRefusesUnaddressableHeap: an Addr is a 32-bit byte offset, so
// a heap past 4 GiB would alias. The refusal must come before the word array
// is allocated — the test would otherwise need 4 GiB to pass.
func TestNewSpaceRefusesUnaddressableHeap(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "4 GiB") {
			t.Fatalf("NewSpace(4 GiB + one block) panicked with %q, want the limit named", msg)
		}
	}()
	NewSpace(NewRegistry(), 4<<30+BlockBytes)
	t.Fatal("NewSpace accepted a heap an Addr cannot address")
}
