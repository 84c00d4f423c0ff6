package heap

import (
	"fmt"
	"testing"
)

func testRegistry(t *testing.T) (*Registry, TypeID, TypeID) {
	t.Helper()
	reg := NewRegistry()
	node := reg.Define("Node",
		Field{Name: "next", Ref: true},
		Field{Name: "val", Ref: false},
	)
	pair := reg.Define("Pair",
		Field{Name: "a", Ref: true},
		Field{Name: "b", Ref: true},
	)
	return reg, node, pair
}

func TestRegistryBasics(t *testing.T) {
	reg, node, pair := testRegistry(t)
	if got := reg.NumTypes(); got != 5 {
		t.Errorf("NumTypes = %d, want 5 (3 builtins + 2)", got)
	}
	ni := reg.Info(node)
	if ni.Name != "Node" || ni.Kind != KindObject || ni.NumFields() != 2 {
		t.Errorf("Node info = %+v", ni)
	}
	if ni.FieldIndex("next") != 0 || ni.FieldIndex("val") != 1 {
		t.Error("field indexes wrong")
	}
	if got := ni.SizeWords(0); got != 3 {
		t.Errorf("Node size = %d words, want 3", got)
	}
	if l := reg.layouts[node]; l != (layout{refs: 0b01, scalars: 0b10, words: 3}) {
		t.Errorf("Node layout = %+v", l)
	}
	if l := reg.layouts[pair]; l != (layout{refs: 0b11, words: 3}) {
		t.Errorf("Pair layout = %+v", l)
	}
	if id, ok := reg.Lookup("Node"); !ok || id != node {
		t.Error("Lookup(Node) failed")
	}
	if _, ok := reg.Lookup("Missing"); ok {
		t.Error("Lookup(Missing) should fail")
	}
	if reg.Name(node) != "Node" {
		t.Error("Name(node)")
	}
	if reg.Name(TypeID(999)) == "" {
		t.Error("Name of unknown should be non-empty diagnostic")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg, _, _ := testRegistry(t)
	mustPanic(t, "duplicate type", func() { reg.Define("Node") })
	mustPanic(t, "duplicate field", func() {
		reg.Define("Bad", Field{Name: "x", Ref: true}, Field{Name: "x", Ref: false})
	})
}

func TestFieldNameFallback(t *testing.T) {
	reg, node, _ := testRegistry(t)
	ni := reg.Info(node)
	if got := ni.FieldName(0); got != "next" {
		t.Errorf("FieldName(0) = %q", got)
	}
	if got := ni.FieldName(99); got != "[99]" {
		t.Errorf("FieldName(99) = %q", got)
	}
	mustPanic(t, "unknown field", func() { ni.FieldIndex("zzz") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestAllocateAndAccess(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)

	a, ok := s.Allocate(node, 0)
	if !ok || a == Nil {
		t.Fatal("allocation failed")
	}
	if !a.aligned() {
		t.Error("address not aligned")
	}
	if s.TypeOf(a) != node {
		t.Errorf("TypeOf = %v", s.TypeOf(a))
	}
	if s.TypeName(a) != "Node" {
		t.Errorf("TypeName = %q", s.TypeName(a))
	}
	b, _ := s.Allocate(node, 0)
	s.SetRef(a, 0, b)
	if got := s.GetRef(a, 0); got != b {
		t.Errorf("GetRef = %v, want %v", got, b)
	}
	s.SetScalar(a, 1, 42)
	if got := s.GetScalar(a, 1); got != 42 {
		t.Errorf("GetScalar = %d", got)
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Error("Contains should be true for live objects")
	}
	if s.Contains(a + 8) {
		t.Error("Contains of interior pointer should be false")
	}
	if s.Contains(Nil) {
		t.Error("Contains(Nil) should be false")
	}
}

func TestAccessorTypeChecks(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	a, _ := s.Allocate(node, 0)
	arr, _ := s.Allocate(TRefArray, 4)
	warr, _ := s.Allocate(TWordArray, 4)

	mustPanic(t, "GetRef on scalar field", func() { s.GetRef(a, 1) })
	mustPanic(t, "SetScalar on ref field", func() { s.SetScalar(a, 0, 1) })
	mustPanic(t, "field out of range", func() { s.GetRef(a, 7) })
	mustPanic(t, "field access on array", func() { s.GetRef(arr, 0) })
	mustPanic(t, "index on object", func() { s.RefAt(a, 0) })
	mustPanic(t, "index out of range", func() { s.RefAt(arr, 4) })
	mustPanic(t, "RefAt on word array", func() { s.RefAt(warr, 0) })
	mustPanic(t, "WordAt on ref array", func() { s.WordAt(arr, 0) })
	mustPanic(t, "arrayLen for object type", func() { s.Allocate(node, 3) })
	mustPanic(t, "negative len", func() { s.Allocate(TRefArray, -1) })

	s.SetRefAt(arr, 0, a)
	if s.RefAt(arr, 0) != a {
		t.Error("SetRefAt/RefAt roundtrip")
	}
	s.SetWordAt(warr, 3, 99)
	if s.WordAt(warr, 3) != 99 {
		t.Error("SetWordAt/WordAt roundtrip")
	}
	if s.ArrayLen(arr) != 4 {
		t.Errorf("ArrayLen = %d", s.ArrayLen(arr))
	}
}

func TestHeaderFlags(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	a, _ := s.Allocate(node, 0)
	for _, f := range []Flag{FlagMark, FlagDead, FlagUnshared, FlagOwned, FlagOwnee, FlagOwner} {
		if s.HasFlag(a, f) {
			t.Errorf("flag %x set on fresh object", f)
		}
		s.SetFlag(a, f)
		if !s.HasFlag(a, f) {
			t.Errorf("flag %x not set after SetFlag", f)
		}
	}
	if s.Flags(a)&FlagDead == 0 {
		t.Error("Flags() missing dead bit")
	}
	// Flags must not disturb the type or array length.
	if s.TypeOf(a) != node {
		t.Error("flags corrupted type")
	}
	s.ClearFlag(a, FlagDead|FlagOwned)
	if s.HasFlag(a, FlagDead) || s.HasFlag(a, FlagOwned) {
		t.Error("ClearFlag of combined mask failed")
	}
	if !s.HasFlag(a, FlagUnshared) {
		t.Error("ClearFlag cleared unrelated bit")
	}
	arr, _ := s.Allocate(TWordArray, 123)
	s.SetMark(arr)
	if s.ArrayLen(arr) != 123 {
		t.Error("mark corrupted array length")
	}
	s.ClearMark(arr)
	if s.Marked(arr) {
		t.Error("ClearMark")
	}
}

func TestLargeObjects(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSpace(reg, 4<<20)
	// One block holds 4096 words; 3 blocks span.
	n := 3*BlockWords - 10
	a, ok := s.Allocate(TWordArray, n)
	if !ok {
		t.Fatal("large allocation failed")
	}
	if s.ArrayLen(a) != n {
		t.Errorf("large len = %d", s.ArrayLen(a))
	}
	s.SetWordAt(a, n-1, 7)
	if s.WordAt(a, n-1) != 7 {
		t.Error("large array tail access")
	}
	if !s.Contains(a) {
		t.Error("Contains(large) = false")
	}
	// Free it: unmarked sweep reclaims the whole span.
	res := s.Sweep()
	if res.ObjectsFreed != 1 {
		t.Errorf("freed = %d, want 1", res.ObjectsFreed)
	}
	// The span is reusable.
	b, ok := s.Allocate(TWordArray, n)
	if !ok {
		t.Fatal("re-allocation of span failed")
	}
	if b != a {
		t.Logf("note: span reallocated at different address (%v vs %v): fine", b, a)
	}
}

func TestSweepRecyclesAndKeepsSurvivors(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	var survivors []Addr
	var doomed []Addr
	for i := 0; i < 1000; i++ {
		a, ok := s.Allocate(node, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if i%2 == 0 {
			s.SetMark(a)
			survivors = append(survivors, a)
		} else {
			doomed = append(doomed, a)
		}
	}
	res := s.Sweep()
	if res.ObjectsFreed != 500 || res.ObjectsLive != 500 {
		t.Fatalf("sweep freed=%d live=%d", res.ObjectsFreed, res.ObjectsLive)
	}
	if st := s.Stats(); st.ObjectsFreed != 500 || st.LiveObjects != 500 {
		t.Errorf("stats after sweep: %+v", st)
	}
	for _, a := range survivors {
		if !s.Contains(a) {
			t.Fatal("survivor vanished")
		}
		if s.Marked(a) {
			t.Fatal("survivor mark not cleared")
		}
	}
	for _, a := range doomed {
		if s.Contains(a) {
			t.Fatal("doomed object still allocated")
		}
	}
	// The freed cells are reusable.
	for i := 0; i < 500; i++ {
		if _, ok := s.Allocate(node, 0); !ok {
			t.Fatal("reuse alloc failed")
		}
	}
}

func TestExhaustionReturnsFalse(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSpace(reg, 2*BlockBytes) // minimum: 1 usable block
	var last Addr
	n := 0
	for {
		a, ok := s.Allocate(TWordArray, 100)
		if !ok {
			break
		}
		last = a
		n++
		if n > 100000 {
			t.Fatal("no exhaustion")
		}
	}
	if n == 0 || last == Nil {
		t.Fatal("nothing allocated before exhaustion")
	}
	// After a full sweep (nothing marked), allocation works again.
	s.Sweep()
	if _, ok := s.Allocate(TWordArray, 100); !ok {
		t.Fatal("allocation after sweep failed")
	}
}

func TestForEachRefAndSlots(t *testing.T) {
	reg, node, pair := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	p, _ := s.Allocate(pair, 0)
	a, _ := s.Allocate(node, 0)
	b, _ := s.Allocate(node, 0)
	s.SetRef(p, 0, a)
	s.SetRef(p, 1, b)
	var got []Addr
	var slots []int
	s.ForEachRef(p, func(slot int, t Addr) {
		slots = append(slots, slot)
		got = append(got, t)
	})
	if len(got) != 2 || got[0] != a || got[1] != b || slots[0] != 0 || slots[1] != 1 {
		t.Errorf("ForEachRef = %v at %v", got, slots)
	}
	if s.RefSlots(p) != 2 {
		t.Errorf("RefSlots(pair) = %d", s.RefSlots(p))
	}
	// Nil fields are skipped.
	s.SetRef(p, 0, Nil)
	got = got[:0]
	s.ForEachRef(p, func(_ int, t Addr) { got = append(got, t) })
	if len(got) != 1 || got[0] != b {
		t.Errorf("ForEachRef after nil = %v", got)
	}
	// Arrays.
	arr, _ := s.Allocate(TRefArray, 3)
	s.SetRefAt(arr, 1, a)
	got = got[:0]
	s.ForEachRef(arr, func(slot int, tgt Addr) {
		if slot != 1 || tgt != a {
			t.Errorf("array edge %d -> %v", slot, tgt)
		}
		got = append(got, tgt)
	})
	if len(got) != 1 {
		t.Errorf("array ForEachRef count = %d", len(got))
	}
	if s.RefSlots(arr) != 3 {
		t.Errorf("RefSlots(arr) = %d", s.RefSlots(arr))
	}
	// Word arrays have no ref slots.
	warr, _ := s.Allocate(TWordArray, 3)
	s.ForEachRef(warr, func(int, Addr) { t.Error("word array has refs?") })
	if s.RefSlots(warr) != 0 {
		t.Error("RefSlots(word array) != 0")
	}
}

func TestClearRefSlot(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	a, _ := s.Allocate(node, 0)
	b, _ := s.Allocate(node, 0)
	s.SetRef(a, 0, b)
	s.ClearRefSlot(a, 0)
	if s.GetRef(a, 0) != Nil {
		t.Error("ClearRefSlot on field")
	}
	arr, _ := s.Allocate(TRefArray, 2)
	s.SetRefAt(arr, 1, b)
	s.ClearRefSlot(arr, 1)
	if s.RefAt(arr, 1) != Nil {
		t.Error("ClearRefSlot on array")
	}
	mustPanic(t, "ClearRefSlot scalar field", func() { s.ClearRefSlot(a, 1) })
	warr, _ := s.Allocate(TWordArray, 2)
	mustPanic(t, "ClearRefSlot word array", func() { s.ClearRefSlot(warr, 0) })
}

func TestForEachObject(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	want := map[Addr]bool{}
	for i := 0; i < 100; i++ {
		a, _ := s.Allocate(node, 0)
		want[a] = true
	}
	big, _ := s.Allocate(TWordArray, BlockWords+5)
	want[big] = true
	got := map[Addr]bool{}
	s.ForEachObject(func(a Addr) bool {
		got[a] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEachObject saw %d objects, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("missing %v", a)
		}
	}
	// Early stop.
	n := 0
	s.ForEachObject(func(Addr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	for i := 0; i < 10; i++ {
		s.Allocate(node, 0)
	}
	st := s.Stats()
	if st.ObjectsAllocated != 10 || st.LiveObjects != 10 {
		t.Errorf("stats after alloc: %+v", st)
	}
	s.Sweep()
	st = s.Stats()
	if st.ObjectsFreed != 10 || st.LiveObjects != 0 {
		t.Errorf("stats after sweep: %+v", st)
	}
	if st.WordsAllocated == 0 {
		t.Error("WordsAllocated = 0")
	}
}

func TestLargeObjectStatsBalance(t *testing.T) {
	// Regression: large-object allocation must account the whole block
	// span, matching what the sweep subtracts, or LiveWords underflows.
	reg, _, _ := testRegistry(t)
	s := NewSpace(reg, 8<<20)
	for i := 0; i < 20; i++ {
		if _, ok := s.Allocate(TWordArray, BlockWords+100); !ok {
			t.Fatal("alloc failed")
		}
		s.Sweep() // everything unmarked: freed immediately
	}
	st := s.Stats()
	if st.LiveObjects != 0 || st.LiveWords != 0 {
		t.Fatalf("stats unbalanced after large churn: %+v", st)
	}
	if int64(st.LiveWords) < 0 || st.LiveWords > uint64(s.CapacityWords()) {
		t.Fatalf("LiveWords out of range: %d", st.LiveWords)
	}
}

func TestSizeClassesCoverAllSizes(t *testing.T) {
	reg := NewRegistry()
	s := NewSpace(reg, 8<<20)
	// Allocate word arrays of every size up to just past the large-object
	// threshold and verify contents isolation (no overlap).
	addrs := make(map[Addr]int)
	for n := 0; n <= maxSmallWords+10; n++ {
		a, ok := s.Allocate(TWordArray, n)
		if !ok {
			t.Fatalf("alloc len %d failed", n)
		}
		for i := 0; i < n; i++ {
			s.SetWordAt(a, i, uint64(n))
		}
		addrs[a] = n
	}
	for a, n := range addrs {
		if s.ArrayLen(a) != n {
			t.Fatalf("len mismatch at %v: %d != %d", a, s.ArrayLen(a), n)
		}
		for i := 0; i < n; i++ {
			if s.WordAt(a, i) != uint64(n) {
				t.Fatalf("content clobbered at %v[%d]", a, i)
			}
		}
	}
}

func TestExample(t *testing.T) {
	// Kind stringer coverage.
	for k, want := range map[Kind]string{KindObject: "object", KindRefArray: "ref-array", KindWordArray: "word-array", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if fmt.Sprint(Nil.IsNil()) != "true" {
		t.Error("Nil.IsNil")
	}
}

// TestAllocLargeDoesNotAllocateOnTheHost: finding a run of free blocks sorts
// the free-block list only when a sweep left it out of order, and never
// through reflection.
func TestAllocLargeDoesNotAllocateOnTheHost(t *testing.T) {
	s := NewSpace(NewRegistry(), 64*BlockBytes)
	// Small cells carve from the top of the list; freeing them appends the
	// blocks behind older entries, so the next findRun has sorting to do.
	churn := func() {
		for i := 0; i < 3*BlockWords/4; i++ {
			s.Allocate(TWordArray, 3)
		}
		if a, ok := s.allocLarge(TWordArray, 5*BlockWords-1, 5*BlockWords); !ok || !s.Contains(a) {
			t.Fatal("large allocation failed")
		}
		s.Sweep()
		if a, ok := s.allocLarge(TWordArray, 2*BlockWords-1, 2*BlockWords); !ok || !s.Contains(a) {
			t.Fatal("large allocation after the sweep failed")
		}
		s.Sweep()
	}
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("%v host allocations per alloc/sweep round, want 0", n)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadFreedCountsFlaggedCellsOnly: Stats.DeadFreed is the number of
// reclaimed objects that carried FlagDead, small or large, and a survivor's
// flag is left for the sweep that frees it.
func TestDeadFreedCountsFlaggedCellsOnly(t *testing.T) {
	reg, node, _ := testRegistry(t)
	s := NewSpace(reg, 1<<20)
	flagged := func(typ TypeID, n int) Addr {
		a := mustAlloc(t, s, typ, n)
		s.SetFlag(a, FlagDead)
		return a
	}
	flagged(node, 0)
	flagged(TWordArray, BlockWords)
	mustAlloc(t, s, node, 0) // dies unflagged
	survivor := flagged(node, 0)
	s.SetMark(survivor)
	if res := s.Sweep(); res.ObjectsFreed != 3 || s.Stats().DeadFreed != 2 {
		t.Fatalf("first sweep freed %d, DeadFreed %d; want 3 and 2", res.ObjectsFreed, s.Stats().DeadFreed)
	}
	if res := s.Sweep(); res.ObjectsFreed != 1 || s.Stats().DeadFreed != 3 {
		t.Fatalf("second sweep freed %d, DeadFreed %d; want 1 and 3", res.ObjectsFreed, s.Stats().DeadFreed)
	}
	s.Sweep() // nothing allocated: stale headers in free cells are never read
	if s.Stats().DeadFreed != 3 {
		t.Fatalf("DeadFreed moved to %d on an empty heap", s.Stats().DeadFreed)
	}
}
