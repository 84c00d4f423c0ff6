package heap

import (
	"math/rand"
	"testing"
)

// wantMarkChildren is MarkChildren's specification, read through ForEachRef
// and the header flags: from slot from on, the first target carrying a flag
// in stop ends the scan, and every unmarked target before it is appended
// once, in slot order.
func wantMarkChildren(s *Space, a Addr, from int, stop Flag) (pushed []Addr, slot int, r Addr) {
	slot, r = -1, Nil
	marked := map[Addr]bool{}
	s.ForEachRef(a, func(i int, t Addr) {
		if i < from || slot >= 0 {
			return
		}
		if s.Flags(t)&stop != 0 {
			slot, r = i, t
			return
		}
		if !s.Marked(t) && !marked[t] {
			marked[t] = true
			pushed = append(pushed, t)
		}
	})
	return pushed, slot, r
}

func TestMarkChildrenMatchesForEachRef(t *testing.T) {
	s, objs := prefetchHeap(t)
	// Reference arrays past one bitmap word: at the edge, just past it and
	// over two words.
	for _, n := range []int{64, 65, 130} {
		a, ok := s.Allocate(TRefArray, n)
		if !ok {
			t.Fatal("heap exhausted")
		}
		for i := 0; i < n; i++ {
			if i%5 != 0 {
				s.SetRefAt(a, i, objs[(i*7+n)%len(objs)])
			}
		}
		objs = append(objs, a)
	}
	rng := rand.New(rand.NewSource(2))
	stops := 0
	for round, a := range objs {
		slots := s.RefSlots(a)
		// A random state for the targets: marked or not, flagged or not.
		s.ForEachRef(a, func(_ int, tgt Addr) {
			s.ClearFlag(tgt, FlagMark|FlagDead|FlagUnshared)
			if rng.Intn(3) == 0 {
				s.SetMark(tgt)
			}
			if rng.Intn(8) == 0 {
				s.SetFlag(tgt, []Flag{FlagDead, FlagUnshared}[rng.Intn(2)])
			}
		})
		stop := Flag(0)
		if round%2 == 0 {
			stop = FlagDead | FlagUnshared
		}
		from := 0
		if slots > 0 && rng.Intn(3) == 0 {
			from = rng.Intn(s.SizeWords(a))
		}
		want, wantSlot, wantR := wantMarkChildren(s, a, from, stop)
		stopMarked := wantR != Nil && s.Marked(wantR)
		dst := []Addr{Nil} // a partly full dst is appended to
		got, slot, r := s.MarkChildren(a, from, stop, round%3 == 0, dst)
		if slot != wantSlot || r != wantR || len(got) != 1+len(want) || got[0] != Nil {
			t.Fatalf("%s@%#x from %d stop %#x: got %#x stop at %d (%#x), want %#x stop at %d (%#x)",
				s.TypeName(a), uint32(a), from, stop, got, slot, uint32(r), want, wantSlot, uint32(wantR))
		}
		for i, p := range want {
			if got[1+i] != p || !s.Marked(p) {
				t.Fatalf("%s@%#x: pushed %#x, want %#x, all marked", s.TypeName(a), uint32(a), got[1:], want)
			}
		}
		if slot >= 0 {
			stops++
			if s.Marked(r) != stopMarked {
				t.Fatalf("%s@%#x: the scan changed the stop target %#x's mark", s.TypeName(a), uint32(a), uint32(r))
			}
		}
	}
	if stops == 0 {
		t.Fatal("no scan stopped at a flagged target")
	}
}

// TestMarkDepthFirstIsMarkChildrenInALoop holds MarkDepthFirst to its
// definition: pop and scan with MarkChildren while the worklist holds at
// least one and fewer than limit entries, for at most max scans. Every
// object of the heap, long reference arrays and wide objects included, is a
// start, under a chain's limit (2) and a drain's (none), and a budget, with
// prefetch on for every other start (it must change nothing but timing).
func TestMarkDepthFirstIsMarkChildrenInALoop(t *testing.T) {
	s, objs := prefetchHeap(t)
	for _, n := range []int{65, 130} {
		a, ok := s.Allocate(TRefArray, n)
		if !ok {
			t.Fatal("heap exhausted")
		}
		s.SetRefAt(a, n-1, objs[n]) // a chain's one child past the first bitmap word
		objs = append(objs, a)
	}
	clearMarks := func() {
		s.ForEachObject(func(a Addr) bool {
			s.ClearMark(a)
			return true
		})
	}
	marks := func() []Addr {
		var out []Addr
		s.ForEachObject(func(o Addr) bool {
			if s.Marked(o) {
				out = append(out, o)
			}
			return true
		})
		return out
	}
	longs := 0
	for i, a := range objs {
		if s.RefSlots(a) > layoutSlots {
			longs++
		}
		limit, max := 2, 1<<30
		switch i % 3 {
		case 1:
			limit = 1 << 30
		case 2:
			limit, max = 1<<30, 1+i%50
		}
		prefetch := i%2 == 1
		clearMarks()
		s.SetMark(a)
		got, marked, scans := s.MarkDepthFirst([]Addr{Nil, a}, 1, limit, max, prefetch)
		gotMarks := marks()

		clearMarks()
		s.SetMark(a)
		want, wantMarked, wantScans := []Addr{Nil, a}, 0, 0
		for ; wantScans < max && len(want) > 1 && len(want)-1 < limit; wantScans++ {
			n := len(want) - 1
			want, _, _ = s.MarkChildren(want[n], 0, 0, prefetch, want[:n])
			wantMarked += len(want) - n
		}
		wantMarks := marks()
		if marked != wantMarked || scans != wantScans || len(got) != len(want) || len(gotMarks) != len(wantMarks) {
			t.Fatalf("from %s@%#x (limit %d, max %d): MarkDepthFirst marked %d in %d scans and left %#x, want %d in %d and %#x",
				s.TypeName(a), uint32(a), limit, max, marked, scans, got, wantMarked, wantScans, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("from %s@%#x: MarkDepthFirst left %#x, want %#x", s.TypeName(a), uint32(a), got, want)
			}
		}
		for j := range gotMarks {
			if gotMarks[j] != wantMarks[j] {
				t.Fatalf("from %s@%#x: MarkDepthFirst marks differ from MarkChildren's", s.TypeName(a), uint32(a))
			}
		}
	}
	if longs == 0 {
		t.Fatal("no start past the layout bitmap")
	}
	clearMarks()
}
