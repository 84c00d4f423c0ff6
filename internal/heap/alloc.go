package heap

import (
	"fmt"
	"math/bits"
)

// Allocate allocates an object of type t. For array kinds, arrayLen gives the
// element count; for KindObject it must be 0. It returns the new object's
// address, or ok=false when the heap is exhausted (the runtime then triggers
// a collection and retries).
func (s *Space) Allocate(t TypeID, arrayLen int) (Addr, bool) {
	size := s.reg.newWords(t, arrayLen)
	if size > maxSmallWords {
		return s.allocLarge(t, arrayLen, size)
	}
	class := classFor(size)
	cellWords := classSizes[class]
	for {
		pl := s.partial[class]
		for len(pl) > 0 {
			bi := pl[len(pl)-1]
			b := &s.blocks[bi]
			// Lowest clear bit from the cursor on: address-ordered reuse.
			for w := int(b.cursor); w < len(b.allocBits); w++ {
				if free := ^b.allocBits[w]; free != 0 {
					c := w<<6 + bits.TrailingZeros64(free)
					b.allocBits[w] |= free & -free
					b.cursor = int32(w)
					b.liveCells++
					a := blockStart(bi) + Addr(c*cellWords*WordBytes)
					s.initObject(a, t, arrayLen, cellWords)
					return a, true
				}
			}
			b.cursor = int32(len(b.allocBits))
			pl = pl[:len(pl)-1]
			s.partial[class] = pl
		}
		if !s.carveBlock(class) {
			return Nil, false
		}
	}
}

// newWords returns the size in words of a new instance of t with arrayLen
// elements, from the layout table; a misuse panics in the slow path.
func (r *Registry) newWords(t TypeID, arrayLen int) int {
	if int(t) < len(r.layouts) {
		w := r.layouts[t].words
		if w != 0 && arrayLen == 0 {
			return int(w)
		}
		if w == 0 && arrayLen >= 0 {
			return 1 + arrayLen
		}
	}
	ti := r.Info(t)
	if ti.Kind == KindObject && arrayLen != 0 {
		panic(fmt.Sprintf("heap: arrayLen %d for non-array type %s", arrayLen, ti.Name))
	}
	panic(fmt.Sprintf("heap: negative array length %d", arrayLen))
}

// allocLarge allocates an object spanning one or more dedicated blocks.
func (s *Space) allocLarge(t TypeID, arrayLen, size int) (Addr, bool) {
	nblk := (size + BlockWords - 1) / BlockWords
	first, ok := s.findRun(nblk)
	if !ok {
		return Nil, false
	}
	b := &s.blocks[first]
	b.class = blkLargeHead
	b.spanLen = int32(nblk)
	b.liveCells = 1
	for i := 1; i < nblk; i++ {
		s.blocks[first+uint32(i)].class = blkLargeCont
	}
	a := blockStart(first)
	// Account the whole span as the object's storage, matching what the
	// sweep returns to the free pool when the object dies.
	s.initObject(a, t, arrayLen, nblk*BlockWords)
	return a, true
}

// initObject zeroes the cell and writes a fresh header.
func (s *Space) initObject(a Addr, t TypeID, arrayLen, cellWords int) {
	w := a.word()
	for i := 0; i < cellWords; i++ {
		s.words[w+uint32(i)] = 0
	}
	s.words[w] = makeHeader(t, arrayLen)
	s.stats.ObjectsAllocated++
	s.stats.WordsAllocated += uint64(cellWords)
	s.stats.LiveObjects++
	s.stats.LiveWords += uint64(cellWords)
}
