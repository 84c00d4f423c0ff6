package heap

import (
	"fmt"
	"math/bits"
)

// The checked accessors below take one fast path per access: a header load,
// one layout-table load and a bit test for fields; a TypeID compare and a
// length test for array elements. Anything else — a misuse, a wide type's
// slot past the bitmaps — goes to the slow paths checkSlot and checkElem,
// which resolve the access through the TypeInfo and panic naming the
// misuse. A corrupt TypeID panics in Registry.Info, from either path.

// checkSlot is the field accessors' slow path. It returns only for a field
// of the wanted kind (ref or scalar) the bitmaps do not cover, a wide
// type's slot of 64 or more; every other call panics.
func (s *Space) checkSlot(a Addr, slot int, ref bool, op string) {
	ti := s.reg.Info(s.TypeOf(a))
	if ti.Kind != KindObject {
		panic(fmt.Sprintf("heap: field access on %s (kind %s)", ti.Name, ti.Kind))
	}
	if slot < 0 || slot >= len(ti.Fields) {
		panic(fmt.Sprintf("heap: field %d out of range for %s (%d fields)", slot, ti.Name, len(ti.Fields)))
	}
	if f := ti.Fields[slot]; f.Ref != ref {
		kind := "scalar"
		if f.Ref {
			kind = "ref"
		}
		panic(fmt.Sprintf("heap: %s of %s field %s.%s", op, kind, ti.Name, f.Name))
	}
}

// GetRef loads the reference field at the given slot of the object at a.
func (s *Space) GetRef(a Addr, slot int) Addr {
	w := a.word()
	if s.reg.layoutOf(headerType(s.words[w])).refs>>uint(slot)&1 == 0 {
		s.checkSlot(a, slot, true, "GetRef")
	}
	return Addr(s.words[w+uint32(1+slot)])
}

// SetRef stores val into the reference field at the given slot of the object
// at a.
func (s *Space) SetRef(a Addr, slot int, val Addr) {
	w := a.word()
	if s.reg.layoutOf(headerType(s.words[w])).refs>>uint(slot)&1 == 0 {
		s.checkSlot(a, slot, true, "SetRef")
	}
	s.words[w+uint32(1+slot)] = uint64(val)
}

// GetScalar loads the scalar field at the given slot of the object at a.
func (s *Space) GetScalar(a Addr, slot int) uint64 {
	w := a.word()
	if s.reg.layoutOf(headerType(s.words[w])).scalars>>uint(slot)&1 == 0 {
		s.checkSlot(a, slot, false, "GetScalar")
	}
	return s.words[w+uint32(1+slot)]
}

// SetScalar stores val into the scalar field at the given slot.
func (s *Space) SetScalar(a Addr, slot int, val uint64) {
	w := a.word()
	if s.reg.layoutOf(headerType(s.words[w])).scalars>>uint(slot)&1 == 0 {
		s.checkSlot(a, slot, false, "SetScalar")
	}
	s.words[w+uint32(1+slot)] = val
}

// checkIndex panics unless i is in range for the array at a, returning its
// TypeInfo.
func (s *Space) checkIndex(a Addr, i int) *TypeInfo {
	ti := s.reg.Info(s.TypeOf(a))
	if ti.Kind == KindObject {
		panic(fmt.Sprintf("heap: index access on non-array %s", ti.Name))
	}
	if n := s.ArrayLen(a); i < 0 || i >= n {
		panic(fmt.Sprintf("heap: index %d out of range [0,%d) for %s", i, n, ti.Name))
	}
	return ti
}

// checkElem is the array accessors' slow path: it panics unless a is an
// array of kind k with an element i.
func (s *Space) checkElem(a Addr, i int, k Kind, op string) {
	if ti := s.checkIndex(a, i); ti.Kind != k {
		panic(fmt.Sprintf("heap: %s on %s", op, ti.Name))
	}
}

// isElem reports whether header h is an array of type t with an element i.
func isElem(h uint64, t TypeID, i int) bool {
	return headerType(h) == t && uint(i) < uint(headerLen(h))
}

// RefAt loads element i of the reference array at a.
func (s *Space) RefAt(a Addr, i int) Addr {
	w := a.word()
	if !isElem(s.words[w], TRefArray, i) {
		s.checkElem(a, i, KindRefArray, "RefAt")
	}
	return Addr(s.words[w+uint32(1+i)])
}

// SetRefAt stores val into element i of the reference array at a.
func (s *Space) SetRefAt(a Addr, i int, val Addr) {
	w := a.word()
	if !isElem(s.words[w], TRefArray, i) {
		s.checkElem(a, i, KindRefArray, "SetRefAt")
	}
	s.words[w+uint32(1+i)] = uint64(val)
}

// WordAt loads element i of the scalar array at a.
func (s *Space) WordAt(a Addr, i int) uint64 {
	w := a.word()
	if !isElem(s.words[w], TWordArray, i) {
		s.checkElem(a, i, KindWordArray, "WordAt")
	}
	return s.words[w+uint32(1+i)]
}

// SetWordAt stores val into element i of the scalar array at a.
func (s *Space) SetWordAt(a Addr, i int, val uint64) {
	w := a.word()
	if !isElem(s.words[w], TWordArray, i) {
		s.checkElem(a, i, KindWordArray, "SetWordAt")
	}
	s.words[w+uint32(1+i)] = val
}

// TypeName returns the type name of the object at a (for diagnostics).
func (s *Space) TypeName(a Addr) string { return s.reg.Name(s.TypeOf(a)) }

// ForEachRef calls fn(slot, target) for every non-nil outgoing reference of
// the object at a, in ascending slot order. For arrays, slot is the element
// index; for objects it is the field slot. This is the collector's scanning
// primitive.
func (s *Space) ForEachRef(a Addr, fn func(slot int, target Addr)) {
	w := a.word()
	h := s.words[w]
	t := headerType(h)
	if t == TRefArray {
		n := headerLen(h)
		for i := 0; i < n; i++ {
			if r := Addr(s.words[w+uint32(1+i)]); r != Nil {
				fn(i, r)
			}
		}
		return
	}
	l := s.reg.layoutOf(t)
	for m := l.refs; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if r := Addr(s.words[w+uint32(1+i)]); r != Nil {
			fn(i, r)
		}
	}
	if l.wide() {
		for i := layoutSlots; i < int(l.words)-1; i++ {
			if r := Addr(s.words[w+uint32(1+i)]); r != Nil && s.reg.types[t].Fields[i].Ref {
				fn(i, r)
			}
		}
	}
}

// RefSlots returns the number of reference slots the object at a has (fields
// for objects, elements for ref arrays, zero for scalar arrays).
func (s *Space) RefSlots(a Addr) int {
	h := s.words[a.word()]
	t := headerType(h)
	if t == TRefArray {
		return headerLen(h)
	}
	l := s.reg.layoutOf(t)
	n := bits.OnesCount64(l.refs)
	if l.wide() {
		for _, f := range s.reg.types[t].Fields[layoutSlots:] {
			if f.Ref {
				n++
			}
		}
	}
	return n
}

// SizeWords returns the size in words, header included, of the object at a:
// what TypeInfo.SizeWords gives for its type and array length.
func (s *Space) SizeWords(a Addr) int {
	h := s.words[a.word()]
	if w := s.reg.layoutOf(headerType(h)).words; w != 0 {
		return int(w)
	}
	return 1 + headerLen(h)
}

// ClearRefSlot stores nil into the given reference slot (field slot for
// objects, element index for arrays). The assertion engine's force-true
// reaction uses it to sever the reference that keeps an asserted-dead object
// alive.
func (s *Space) ClearRefSlot(a Addr, slot int) {
	ti := s.reg.Info(s.TypeOf(a))
	switch ti.Kind {
	case KindObject:
		s.checkSlot(a, slot, true, "ClearRefSlot")
	case KindRefArray:
		s.checkIndex(a, slot)
	default:
		panic(fmt.Sprintf("heap: ClearRefSlot on %s", ti.Name))
	}
	s.words[a.word()+uint32(1+slot)] = 0
}
