package heap

import (
	"fmt"
	"math/bits"
)

// Verify checks the heap's structural invariants (DESIGN.md, "Heap layout
// and its invariants", numbers 3–7, and side-table invariant 1) and returns
// the first one found broken. It is O(heap) and is called only from tests,
// between a sweep and the next mark.
func (s *Space) Verify() error {
	// Invariant 4, gathered first: how often each block sits on a list.
	nFree := make([]int, s.nblocks)
	for _, bi := range s.freeBlocks {
		nFree[bi]++
	}
	nPartial := make([]int, s.nblocks)
	for class := range s.partial {
		for _, bi := range s.partial[class] {
			if int(s.blocks[bi].class) != class {
				return fmt.Errorf("block %d (class %d) is on partial[%d]", bi, s.blocks[bi].class, class)
			}
			nPartial[bi]++
		}
	}
	var objs, words uint64
	for bi := uint32(0); bi < s.nblocks; bi++ {
		b := &s.blocks[bi]
		want := 0
		if b.class == blkFree {
			want = 1
		}
		if nFree[bi] != want {
			return fmt.Errorf("block %d (class %d) is on freeBlocks %d times", bi, b.class, nFree[bi])
		}
		if b.class < 0 && nPartial[bi] != 0 {
			return fmt.Errorf("block %d (class %d) is on a partial list", bi, b.class)
		}
		switch {
		case b.class >= 0:
			if err := s.verifyCarved(bi, b, nPartial[bi]); err != nil {
				return err
			}
			objs += uint64(b.liveCells)
			words += uint64(int(b.liveCells) * classSizes[b.class])
		case b.class == blkLargeHead:
			if b.liveCells != 1 || b.spanLen < 1 || bi+uint32(b.spanLen) > s.nblocks {
				return fmt.Errorf("span head %d: liveCells %d, spanLen %d", bi, b.liveCells, b.spanLen)
			}
			for i := uint32(1); i < uint32(b.spanLen); i++ {
				if s.blocks[bi+i].class != blkLargeCont {
					return fmt.Errorf("span at %d: block %d is not a continuation", bi, bi+i)
				}
			}
			if s.Marked(blockStart(bi)) {
				return fmt.Errorf("span at %d carries FlagMark after a sweep", bi)
			}
			objs++
			words += uint64(b.spanLen) * BlockWords
			bi += uint32(b.spanLen) - 1
		case b.class == blkLargeCont:
			return fmt.Errorf("block %d is a span continuation without a head", bi)
		}
	}
	// Invariant 5: the statistics are the sum over the bitmaps.
	if objs != s.stats.LiveObjects || words != s.stats.LiveWords {
		return fmt.Errorf("bitmaps hold %d objects / %d words, stats say %d / %d", objs, words, s.stats.LiveObjects, s.stats.LiveWords)
	}
	return s.verifyTables()
}

// verifyCarved checks invariants 3, 4 (partial-list half) and 6 for one
// small-object block.
func (s *Space) verifyCarved(bi uint32, b *blockInfo, nPartial int) error {
	cellWords := classSizes[b.class]
	ncells := BlockWords / cellWords
	if len(b.allocBits) != (ncells+63)/64 {
		return fmt.Errorf("block %d: %d bitmap words for %d cells", bi, len(b.allocBits), ncells)
	}
	last := len(b.allocBits) - 1
	if pad := padBits[b.class]; b.allocBits[last]&pad != pad {
		return fmt.Errorf("block %d: pad bits %#x not all set in %#x", bi, pad, b.allocBits[last])
	}
	n := 0
	for w := range b.allocBits {
		if w < int(b.cursor) && b.allocBits[w] != ^uint64(0) {
			return fmt.Errorf("block %d: clear bit in word %d below cursor %d", bi, w, b.cursor)
		}
		m := b.cellBits(w)
		n += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			c := w<<6 + bits.TrailingZeros64(m)
			if a := blockStart(bi) + Addr(c*cellWords*WordBytes); s.Marked(a) {
				return fmt.Errorf("%#x carries FlagMark after a sweep", uint32(a))
			}
		}
	}
	if n != int(b.liveCells) || n == 0 {
		return fmt.Errorf("block %d: %d alloc bits set, liveCells %d", bi, n, b.liveCells)
	}
	if nPartial > 1 || (n < ncells && nPartial == 0) {
		return fmt.Errorf("block %d: %d of %d cells free, on partial[%d] %d times", bi, ncells-n, ncells, b.class, nPartial)
	}
	return nil
}

// verifyTables checks side-table invariant 1 by walking rows: every non-zero
// entry sits on a set alloc bit, rows are as long as their block has cells,
// and Len counts exactly the non-zero entries.
func (s *Space) verifyTables() error {
	for ti, t := range s.tables {
		n := 0
		for bi, row := range t.rows {
			if row == nil {
				continue
			}
			b := &s.blocks[bi]
			if (b.class < 0 && b.class != blkLargeHead) || len(row) != s.cellsIn(uint32(bi)) {
				return fmt.Errorf("table %d: row of %d entries on block %d (class %d)", ti, len(row), bi, b.class)
			}
			for c, v := range row {
				if v == 0 {
					continue
				}
				n++
				if b.class >= 0 && b.allocBits[c>>6]>>(c&63)&1 == 0 {
					return fmt.Errorf("table %d: entry %d on free cell %d of block %d", ti, v, c, bi)
				}
			}
		}
		if n != t.n {
			return fmt.Errorf("table %d: %d non-zero entries, Len() = %d", ti, n, t.n)
		}
	}
	return nil
}
