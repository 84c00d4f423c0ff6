package heap

import (
	"math/rand"
	"testing"
)

// prefetchHeap allocates 3 000 objects, in a seeded order, of every object
// kind PrefetchQueue can meet: small objects with ref and scalar fields, one
// whose fields cross a cache line, a wide type, reference arrays of several
// lengths (the empty one included), and word arrays. Ref slots hold other
// objects or Nil; scalar fields and word-array elements hold object
// addresses too, so a reader that strays outside the ref slots returns
// something it must not.
func prefetchHeap(t *testing.T) (*Space, []Addr) {
	t.Helper()
	reg := NewRegistry()
	node := reg.Define("Node", Field{Name: "next", Ref: true}, Field{Name: "val"})
	entry := reg.Define("Entry", Field{Name: "fields", Ref: true}, Field{Name: "key"}, Field{Name: "id"})
	var mixed, wide []Field
	for i := 0; i < 8; i++ {
		mixed = append(mixed, Field{Name: string(rune('a' + i)), Ref: i%2 == 0})
	}
	for i := 0; i < 70; i++ {
		wide = append(wide, Field{Name: "f" + string(rune('A'+i%26)) + string(rune('a'+i/26)), Ref: i%3 != 2})
	}
	tMixed := reg.Define("Mixed", mixed...)
	tWide := reg.Define("Wide", wide...)
	s := NewSpace(reg, 32*BlockBytes)
	rng := rand.New(rand.NewSource(1))
	var objs []Addr
	for len(objs) < 3000 {
		var a Addr
		var ok bool
		switch k := rng.Intn(8); k {
		case 0:
			a, ok = s.Allocate(node, 0)
		case 1:
			a, ok = s.Allocate(entry, 0)
		case 2:
			a, ok = s.Allocate(tMixed, 0)
		case 3:
			a, ok = s.Allocate(tWide, 0)
		case 4:
			a, ok = s.Allocate(TWordArray, 5)
		default:
			a, ok = s.Allocate(TRefArray, []int{0, 1, 3, 7, 20}[rng.Intn(5)])
		}
		if !ok {
			t.Fatal("heap exhausted")
		}
		objs = append(objs, a)
	}
	pick := func() Addr {
		if rng.Intn(4) == 0 {
			return Nil
		}
		return objs[rng.Intn(len(objs))]
	}
	for _, a := range objs {
		ti := reg.Info(s.TypeOf(a))
		switch ti.Kind {
		case KindObject:
			for i, f := range ti.Fields {
				if f.Ref {
					s.SetRef(a, i, pick())
				} else {
					s.SetScalar(a, i, uint64(objs[rng.Intn(len(objs))]))
				}
			}
		case KindRefArray:
			for i := 0; i < s.ArrayLen(a); i++ {
				s.SetRefAt(a, i, pick())
			}
		case KindWordArray:
			for i := 0; i < s.ArrayLen(a); i++ {
				s.SetWordAt(a, i, uint64(objs[rng.Intn(len(objs))]))
			}
		}
	}
	return s, objs
}

// wantLineRefs is lineRefs' specification, read through the checked
// accessors and the TypeInfo: the non-nil ref slots of a whose word shares
// the header's cache line, in slot order, at most max of them.
func wantLineRefs(s *Space, a Addr, max int) []Addr {
	lineEnd := (uint32(a)/WordBytes | (lineWords - 1)) + 1 // first word past the line
	inLine := func(slot int) bool { return uint32(a)/WordBytes+1+uint32(slot) < lineEnd }
	var out []Addr
	add := func(r Addr) {
		if r != Nil && len(out) < max {
			out = append(out, r)
		}
	}
	ti := s.reg.Info(s.TypeOf(a))
	switch ti.Kind {
	case KindObject:
		for i, f := range ti.Fields {
			if f.Ref && inLine(i) {
				add(s.GetRef(a, i))
			}
		}
	case KindRefArray:
		for i := 0; i < s.ArrayLen(a) && inLine(i); i++ {
			add(s.RefAt(a, i))
		}
	}
	return out
}

func TestLineRefsReadsOnlyTheObjectsSlotsInItsHeaderLine(t *testing.T) {
	s, objs := prefetchHeap(t)
	offsets := map[TypeID]map[uint32]bool{}
	for _, a := range objs {
		typ := s.TypeOf(a)
		if offsets[typ] == nil {
			offsets[typ] = map[uint32]bool{}
		}
		offsets[typ][a.word()%lineWords] = true
		for _, max := range []int{prefetchCap, 2} {
			got := s.lineRefs(a, make([]Addr, 0, max))
			want := wantLineRefs(s, a, max)
			if len(got) != len(want) {
				t.Fatalf("%s@%#x (cap %d): lineRefs = %#x, want %#x", s.TypeName(a), uint32(a), max, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s@%#x (cap %d): lineRefs = %#x, want %#x", s.TypeName(a), uint32(a), max, got, want)
				}
			}
		}
		// A partly full dst is appended to, never overwritten.
		dst := append(make([]Addr, 0, prefetchCap), 8)
		if got := s.lineRefs(a, dst); got[0] != 8 || len(got) != 1+len(wantLineRefs(s, a, prefetchCap-1)) {
			t.Fatalf("%s@%#x: lineRefs on a partly full dst = %#x", s.TypeName(a), uint32(a), got)
		}
	}
	// The seeded fill must put the small node type at every offset in a line.
	if node, _ := s.reg.Lookup("Node"); len(offsets[node]) != lineWords {
		t.Fatalf("Node headers met at %d of %d line offsets", len(offsets[node]), lineWords)
	}
}

func TestLineRefsToleratesHeadersItCannotRead(t *testing.T) {
	s, objs := prefetchHeap(t)
	last := Addr(len(s.words)-1) * WordBytes
	for _, a := range []Addr{Addr(len(s.words)) * WordBytes, ^Addr(0) &^ (WordBytes - 1)} {
		if got := s.lineRefs(a, make([]Addr, 0, prefetchCap)); len(got) != 0 {
			t.Fatalf("address %#x outside the heap yields %#x", uint32(a), got)
		}
	}
	// A forged header in the heap's last word: an unknown type yields
	// nothing, and a reference array claiming 2³²−1 elements is read only
	// to the end of its line, which is the end of the heap.
	s.words[last.word()] = makeHeader(maxTypeID, 0)
	if got := s.lineRefs(last, make([]Addr, 0, prefetchCap)); len(got) != 0 {
		t.Fatalf("unknown type yields %#x", got)
	}
	s.words[last.word()] = makeHeader(TRefArray, 1<<32-1)
	if got := s.lineRefs(last, make([]Addr, 0, prefetchCap)); len(got) != 0 {
		t.Fatalf("a header in the heap's last word yields %#x", got)
	}
	tail := last - 3*WordBytes
	s.words[tail.word()] = makeHeader(TRefArray, 1<<32-1)
	s.words[tail.word()+1] = uint64(objs[0])
	if got := s.lineRefs(tail, make([]Addr, 0, prefetchCap)); len(got) > 3 || (len(got) > 0 && got[0] != objs[0]) {
		t.Fatalf("a forged ref array three words before the end yields %#x", got)
	}
}

func TestPrefetchQueueNeverPanicsOrAllocates(t *testing.T) {
	s, objs := prefetchHeap(t)
	q := append([]Addr{Nil, Addr(len(s.words)) * WordBytes, Addr(len(s.words)-1) * WordBytes}, objs...)
	// Every position of every prefix, past the tail and before the head:
	// each stage must skip what lies beyond the queue.
	for n := 0; n <= 4*prefetchDist; n++ {
		for i := -1; i <= n+3*prefetchDist; i++ {
			s.PrefetchQueue(q[:n], i)
		}
	}
	for i := -1; i <= len(q)+3*prefetchDist; i++ {
		s.PrefetchQueue(q, i)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("PrefetchQueue changed the heap: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range q {
			s.PrefetchQueue(q, i)
		}
	})
	if allocs != 0 {
		t.Fatalf("PrefetchQueue allocates %.1f times per pass over the queue", allocs)
	}
}
