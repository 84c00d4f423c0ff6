package heap

import (
	"fmt"
	"testing"
)

// wideType defines a type of n fields, every third one a reference, named
// f0…f(n-1).
func wideType(reg *Registry, name string, n int) TypeID {
	fields := make([]Field, n)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("f%d", i), Ref: i%3 == 0}
	}
	return reg.Define(name, fields...)
}

// TestAccessorPanicMessages pins the panic string of every checked accessor
// misuse. The strings were recorded on the accessors that resolved each
// access through Registry.Info, before the layout table; the table's fast
// paths fall back to that code, so a misuse still names what it did wrong.
func TestAccessorPanicMessages(t *testing.T) {
	reg, node, _ := testRegistry(t)
	wide := wideType(reg, "Wide", 70)
	s := NewSpace(reg, 1<<20)
	obj := mustAlloc(t, s, node, 0)
	arr := mustAlloc(t, s, TRefArray, 4)
	warr := mustAlloc(t, s, TWordArray, 4)
	w := mustAlloc(t, s, wide, 0)
	// corrupt carries a TypeID no type was registered under.
	corrupt := mustAlloc(t, s, node, 0)
	s.words[corrupt.word()] = makeHeader(999, 0)

	cases := []struct {
		name, want string
		fn         func()
	}{
		// A field access on an array, an index access on an object.
		{"GetRef on ref array", "heap: field access on [Object (kind ref-array)", func() { s.GetRef(arr, 0) }},
		{"SetRef on word array", "heap: field access on [word (kind word-array)", func() { s.SetRef(warr, 0, Nil) }},
		{"GetScalar on word array", "heap: field access on [word (kind word-array)", func() { s.GetScalar(warr, 0) }},
		{"SetScalar on ref array", "heap: field access on [Object (kind ref-array)", func() { s.SetScalar(arr, 0, 1) }},
		{"RefAt on object", "heap: index access on non-array Node", func() { s.RefAt(obj, 0) }},
		{"SetRefAt on object", "heap: index access on non-array Node", func() { s.SetRefAt(obj, 0, Nil) }},
		{"WordAt on object", "heap: index access on non-array Node", func() { s.WordAt(obj, 0) }},
		{"SetWordAt on object", "heap: index access on non-array Node", func() { s.SetWordAt(obj, 0, 1) }},
		// The wrong array kind; the range check comes first.
		{"RefAt on word array", "heap: RefAt on [word", func() { s.RefAt(warr, 0) }},
		{"SetRefAt on word array", "heap: SetRefAt on [word", func() { s.SetRefAt(warr, 0, Nil) }},
		{"WordAt on ref array", "heap: WordAt on [Object", func() { s.WordAt(arr, 0) }},
		{"SetWordAt on ref array", "heap: SetWordAt on [Object", func() { s.SetWordAt(arr, 0, 1) }},
		{"RefAt on word array out of range", "heap: index 4 out of range [0,4) for [word", func() { s.RefAt(warr, 4) }},
		// Ref/scalar mismatches.
		{"GetRef of scalar", "heap: GetRef of scalar field Node.val", func() { s.GetRef(obj, 1) }},
		{"SetRef of scalar", "heap: SetRef of scalar field Node.val", func() { s.SetRef(obj, 1, Nil) }},
		{"GetScalar of ref", "heap: GetScalar of ref field Node.next", func() { s.GetScalar(obj, 0) }},
		{"SetScalar of ref", "heap: SetScalar of ref field Node.next", func() { s.SetScalar(obj, 0, 1) }},
		// Negative and out-of-range slots.
		{"GetRef slot -1", "heap: field -1 out of range for Node (2 fields)", func() { s.GetRef(obj, -1) }},
		{"SetScalar slot 2", "heap: field 2 out of range for Node (2 fields)", func() { s.SetScalar(obj, 2, 1) }},
		{"GetRef slot 64", "heap: field 64 out of range for Node (2 fields)", func() { s.GetRef(obj, 64) }},
		{"RefAt index -1", "heap: index -1 out of range [0,4) for [Object", func() { s.RefAt(arr, -1) }},
		{"SetRefAt index 4", "heap: index 4 out of range [0,4) for [Object", func() { s.SetRefAt(arr, 4, Nil) }},
		{"WordAt index -1", "heap: index -1 out of range [0,4) for [word", func() { s.WordAt(warr, -1) }},
		{"SetWordAt index 4", "heap: index 4 out of range [0,4) for [word", func() { s.SetWordAt(warr, 4, 1) }},
		// Slots of 64 or more on a wide type.
		{"wide GetRef of scalar slot 64", "heap: GetRef of scalar field Wide.f64", func() { s.GetRef(w, 64) }},
		{"wide SetRef of scalar slot 65", "heap: SetRef of scalar field Wide.f65", func() { s.SetRef(w, 65, Nil) }},
		{"wide GetScalar of ref slot 66", "heap: GetScalar of ref field Wide.f66", func() { s.GetScalar(w, 66) }},
		{"wide SetScalar of ref slot 69", "heap: SetScalar of ref field Wide.f69", func() { s.SetScalar(w, 69, 1) }},
		{"wide GetRef slot 70", "heap: field 70 out of range for Wide (70 fields)", func() { s.GetRef(w, 70) }},
		{"wide ClearRefSlot of scalar slot 67", "heap: ClearRefSlot of scalar field Wide.f67", func() { s.ClearRefSlot(w, 67) }},
		// ClearRefSlot.
		{"ClearRefSlot of scalar", "heap: ClearRefSlot of scalar field Node.val", func() { s.ClearRefSlot(obj, 1) }},
		{"ClearRefSlot slot 2", "heap: field 2 out of range for Node (2 fields)", func() { s.ClearRefSlot(obj, 2) }},
		{"ClearRefSlot slot -1", "heap: field -1 out of range for Node (2 fields)", func() { s.ClearRefSlot(obj, -1) }},
		{"ClearRefSlot on word array", "heap: ClearRefSlot on [word", func() { s.ClearRefSlot(warr, 0) }},
		{"ClearRefSlot index 4", "heap: index 4 out of range [0,4) for [Object", func() { s.ClearRefSlot(arr, 4) }},
		// Allocation.
		{"Allocate arrayLen for object", "heap: arrayLen 3 for non-array type Node", func() { s.Allocate(node, 3) }},
		{"Allocate negative length", "heap: negative array length -1", func() { s.Allocate(TRefArray, -1) }},
		{"Allocate unknown type", "heap: unknown TypeID 999", func() { s.Allocate(999, 0) }},
		// A corrupt TypeID in a header.
		{"corrupt GetRef", "heap: unknown TypeID 999", func() { s.GetRef(corrupt, 0) }},
		{"corrupt SetRef", "heap: unknown TypeID 999", func() { s.SetRef(corrupt, 0, Nil) }},
		{"corrupt GetScalar", "heap: unknown TypeID 999", func() { s.GetScalar(corrupt, 1) }},
		{"corrupt SetScalar", "heap: unknown TypeID 999", func() { s.SetScalar(corrupt, 1, 1) }},
		{"corrupt RefAt", "heap: unknown TypeID 999", func() { s.RefAt(corrupt, 0) }},
		{"corrupt SetRefAt", "heap: unknown TypeID 999", func() { s.SetRefAt(corrupt, 0, Nil) }},
		{"corrupt WordAt", "heap: unknown TypeID 999", func() { s.WordAt(corrupt, 0) }},
		{"corrupt SetWordAt", "heap: unknown TypeID 999", func() { s.SetWordAt(corrupt, 0, 1) }},
		{"corrupt ClearRefSlot", "heap: unknown TypeID 999", func() { s.ClearRefSlot(corrupt, 0) }},
		{"corrupt ForEachRef", "heap: unknown TypeID 999", func() { s.ForEachRef(corrupt, func(int, Addr) {}) }},
		{"corrupt RefSlots", "heap: unknown TypeID 999", func() { s.RefSlots(corrupt) }},
	}
	for _, tc := range cases {
		got := func() (msg string) {
			defer func() {
				r := recover()
				if r == nil {
					msg = "<no panic>"
					return
				}
				msg = fmt.Sprint(r)
			}()
			tc.fn()
			return
		}()
		if got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
}
