package heap

import "testing"

// tableSpace builds a small space with a two-word and an eight-word object
// type, so one block can be carved first into many cells and later into few
// (or the other way round).
func tableSpace(t *testing.T) (s *Space, small, big TypeID) {
	t.Helper()
	reg := NewRegistry()
	small = reg.Define("Small", Field{Name: "v"})
	big = reg.Define("Big", Field{Name: "a"}, Field{Name: "b"}, Field{Name: "c"}, Field{Name: "d"},
		Field{Name: "e"}, Field{Name: "f"}, Field{Name: "g"})
	return NewSpace(reg, 4*BlockBytes), small, big
}

func mustAlloc(t *testing.T, s *Space, typ TypeID, n int) Addr {
	t.Helper()
	a, ok := s.Allocate(typ, n)
	if !ok {
		t.Fatal("allocation failed")
	}
	return a
}

func TestCellTableIsLazyAndExact(t *testing.T) {
	s, small, _ := tableSpace(t)
	tab := s.NewCellTable()
	a, b := mustAlloc(t, s, small, 0), mustAlloc(t, s, small, 0)
	if tab.Get(a) != 0 || tab.Len() != 0 {
		t.Fatal("fresh table must be empty")
	}
	tab.Set(a, 0)
	if tab.rows != nil {
		t.Fatal("clearing an absent entry must not allocate storage")
	}
	tab.Set(a, 7)
	tab.Set(b, 9)
	tab.Set(b, 11) // overwrite: still one entry
	if tab.Get(a) != 7 || tab.Get(b) != 11 || tab.Len() != 2 {
		t.Fatalf("a=%d b=%d len=%d", tab.Get(a), tab.Get(b), tab.Len())
	}
	rows := 0
	for _, r := range tab.rows {
		if r != nil {
			rows++
		}
	}
	if rows != 1 {
		t.Fatalf("%d rows allocated for entries in one block", rows)
	}
	tab.Set(a, 0)
	if tab.Get(a) != 0 || tab.Len() != 1 {
		t.Fatalf("after removal: a=%d len=%d", tab.Get(a), tab.Len())
	}
	// Addresses outside any carved block read as "no entry".
	if tab.Get(Nil) != 0 || tab.Get(blockStart(3)) != 0 || tab.Get(Addr(64*BlockBytes)) != 0 {
		t.Fatal("reserved, free and out-of-range blocks must read 0")
	}
}

func TestCellTableClearedOnFree(t *testing.T) {
	s, small, _ := tableSpace(t)
	tab, other := s.NewCellTable(), s.NewCellTable()
	live, dead := mustAlloc(t, s, small, 0), mustAlloc(t, s, small, 0)
	tab.Set(live, 1)
	tab.Set(dead, 2)
	other.Set(dead, 3)
	s.SetMark(live)
	s.Sweep()
	if tab.Get(live) != 1 || tab.Get(dead) != 0 || tab.Len() != 1 || other.Len() != 0 {
		t.Fatalf("after sweep: live=%d dead=%d len=%d other=%d", tab.Get(live), tab.Get(dead), tab.Len(), other.Len())
	}
	// The freed cell is handed out again and starts without an entry.
	if again := mustAlloc(t, s, small, 0); again != dead || tab.Get(again) != 0 {
		t.Fatalf("recycled cell %#x (want %#x) has entry %d", uint32(again), uint32(dead), tab.Get(again))
	}
}

func TestCellTableSurvivesBlockRecarving(t *testing.T) {
	s, small, big := tableSpace(t)
	tab := s.NewCellTable()
	// Fill the first block with eight-word cells, give the last one an
	// entry, and let everything die: the block returns to the pool.
	var last Addr
	for i := 0; i < BlockWords/8; i++ {
		last = mustAlloc(t, s, big, 0)
	}
	tab.Set(last, 5)
	blk := last.block()
	s.Sweep()
	if tab.Len() != 0 || tab.rows[blk] != nil {
		t.Fatalf("block freed: len=%d, row kept=%v", tab.Len(), tab.rows[blk] != nil)
	}
	// Re-carve that block into two-word cells; its high cell numbers lie
	// beyond the old row's length.
	var in []Addr
	for len(in) < BlockWords/2 {
		if a := mustAlloc(t, s, small, 0); a.block() == blk {
			in = append(in, a)
		}
	}
	for i, a := range in {
		tab.Set(a, uint32(i+1))
	}
	for i, a := range in {
		if tab.Get(a) != uint32(i+1) {
			t.Fatalf("cell %d reads %d", i, tab.Get(a))
		}
	}
}

func TestCellTableLargeObject(t *testing.T) {
	s, small, _ := tableSpace(t)
	tab := s.NewCellTable()
	large := mustAlloc(t, s, TWordArray, BlockWords+10) // a two-block span
	tab.Set(large, 4)
	if tab.Get(large) != 4 || tab.Len() != 1 {
		t.Fatalf("large entry = %d, len %d", tab.Get(large), tab.Len())
	}
	s.Sweep()
	if tab.Get(large) != 0 || tab.Len() != 0 {
		t.Fatalf("after the span died: entry %d, len %d", tab.Get(large), tab.Len())
	}
	// The span's head block is carved for small objects next.
	for i := 0; i < 3*BlockWords/2; i++ {
		a := mustAlloc(t, s, small, 0)
		tab.Set(a, 1)
		if tab.Get(a) != 1 {
			t.Fatalf("small cell %#x in a former span reads %d", uint32(a), tab.Get(a))
		}
	}
}
