package heap

import "fmt"

// checkField panics unless slot is a valid field index for the object at a,
// returning the object's TypeInfo.
func (s *Space) checkField(a Addr, slot int) *TypeInfo {
	ti := s.reg.Info(s.TypeOf(a))
	if ti.Kind != KindObject {
		panic(fmt.Sprintf("heap: field access on %s (kind %s)", ti.Name, ti.Kind))
	}
	if slot < 0 || slot >= len(ti.Fields) {
		panic(fmt.Sprintf("heap: field %d out of range for %s (%d fields)", slot, ti.Name, len(ti.Fields)))
	}
	return ti
}

// GetRef loads the reference field at the given slot of the object at a.
func (s *Space) GetRef(a Addr, slot int) Addr {
	ti := s.checkField(a, slot)
	if !ti.Fields[slot].Ref {
		panic(fmt.Sprintf("heap: GetRef of scalar field %s.%s", ti.Name, ti.Fields[slot].Name))
	}
	return Addr(s.words[a.word()+uint32(1+slot)])
}

// SetRef stores val into the reference field at the given slot of the object
// at a.
func (s *Space) SetRef(a Addr, slot int, val Addr) {
	ti := s.checkField(a, slot)
	if !ti.Fields[slot].Ref {
		panic(fmt.Sprintf("heap: SetRef of scalar field %s.%s", ti.Name, ti.Fields[slot].Name))
	}
	s.words[a.word()+uint32(1+slot)] = uint64(val)
}

// GetScalar loads the scalar field at the given slot of the object at a.
func (s *Space) GetScalar(a Addr, slot int) uint64 {
	ti := s.checkField(a, slot)
	if ti.Fields[slot].Ref {
		panic(fmt.Sprintf("heap: GetScalar of ref field %s.%s", ti.Name, ti.Fields[slot].Name))
	}
	return s.words[a.word()+uint32(1+slot)]
}

// SetScalar stores val into the scalar field at the given slot.
func (s *Space) SetScalar(a Addr, slot int, val uint64) {
	ti := s.checkField(a, slot)
	if ti.Fields[slot].Ref {
		panic(fmt.Sprintf("heap: SetScalar of ref field %s.%s", ti.Name, ti.Fields[slot].Name))
	}
	s.words[a.word()+uint32(1+slot)] = val
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

// RefAt loads element i of the reference array at a.
func (s *Space) RefAt(a Addr, i int) Addr {
	if ti := s.checkIndex(a, i); ti.Kind != KindRefArray {
		panic(fmt.Sprintf("heap: RefAt on %s", ti.Name))
	}
	return Addr(s.words[a.word()+uint32(1+i)])
}

// SetRefAt stores val into element i of the reference array at a.
func (s *Space) SetRefAt(a Addr, i int, val Addr) {
	if ti := s.checkIndex(a, i); ti.Kind != KindRefArray {
		panic(fmt.Sprintf("heap: SetRefAt on %s", ti.Name))
	}
	s.words[a.word()+uint32(1+i)] = uint64(val)
}

// WordAt loads element i of the scalar array at a.
func (s *Space) WordAt(a Addr, i int) uint64 {
	if ti := s.checkIndex(a, i); ti.Kind != KindWordArray {
		panic(fmt.Sprintf("heap: WordAt on %s", ti.Name))
	}
	return s.words[a.word()+uint32(1+i)]
}

// SetWordAt stores val into element i of the scalar array at a.
func (s *Space) SetWordAt(a Addr, i int, val uint64) {
	if ti := s.checkIndex(a, i); ti.Kind != KindWordArray {
		panic(fmt.Sprintf("heap: SetWordAt on %s", ti.Name))
	}
	s.words[a.word()+uint32(1+i)] = val
}

// TypeName returns the type name of the object at a (for diagnostics).
func (s *Space) TypeName(a Addr) string { return s.reg.Name(s.TypeOf(a)) }

// ForEachRef calls fn(slot, target) for every non-nil outgoing reference of
// the object at a. For arrays, slot is the element index; for objects it is
// the field slot. This is the collector's scanning primitive.
func (s *Space) ForEachRef(a Addr, fn func(slot int, target Addr)) {
	h := s.words[a.word()]
	ti := s.reg.Info(headerType(h))
	switch ti.Kind {
	case KindObject:
		w := a.word()
		for _, off := range ti.RefOffsets {
			if t := Addr(s.words[w+uint32(off)]); t != Nil {
				fn(int(off)-1, t)
			}
		}
	case KindRefArray:
		w := a.word()
		n := headerLen(h)
		for i := 0; i < n; i++ {
			if t := Addr(s.words[w+uint32(1+i)]); t != Nil {
				fn(i, t)
			}
		}
	}
}

// RefSlots returns the number of reference slots the object at a has (fields
// for objects, elements for ref arrays, zero for scalar arrays).
func (s *Space) RefSlots(a Addr) int {
	ti := s.reg.Info(s.TypeOf(a))
	switch ti.Kind {
	case KindObject:
		return len(ti.RefOffsets)
	case KindRefArray:
		return s.ArrayLen(a)
	default:
		return 0
	}
}

// ClearRefSlot stores nil into the given reference slot (field slot for
// objects, element index for arrays). The assertion engine's force-true
// reaction uses it to sever the reference that keeps an asserted-dead object
// alive.
func (s *Space) ClearRefSlot(a Addr, slot int) {
	ti := s.reg.Info(s.TypeOf(a))
	switch ti.Kind {
	case KindObject:
		ti = s.checkField(a, slot)
		if !ti.Fields[slot].Ref {
			panic(fmt.Sprintf("heap: ClearRefSlot of scalar field %s.%s", ti.Name, ti.Fields[slot].Name))
		}
	case KindRefArray:
		s.checkIndex(a, slot)
	default:
		panic(fmt.Sprintf("heap: ClearRefSlot on %s", ti.Name))
	}
	s.words[a.word()+uint32(1+slot)] = 0
}
