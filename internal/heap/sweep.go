package heap

// SweepResult summarizes one sweep pass.
type SweepResult struct {
	// ObjectsFreed is the number of objects reclaimed.
	ObjectsFreed int
	// WordsFreed is the number of words returned to free lists.
	WordsFreed int
	// ObjectsLive is the number of objects that survived (marks cleared).
	ObjectsLive int
}

// Sweep reclaims every allocated object whose mark bit is clear, rebuilds
// the per-block free lists, and returns empty blocks to the block pool.
// Survivors' mark bits are cleared unless keepMarks is set (sticky marks,
// used by generational minor collections). FreeHook (if set) is called for
// each freed object before its storage is recycled, which the assertion
// engine uses to prune weak registrations.
//
// Sweep corresponds to the sweep phase of the paper's MarkSweep collector;
// the collector package calls it after tracing.
func (s *Space) Sweep(keepMarks bool) SweepResult {
	var res SweepResult
	s.keepMarks = keepMarks
	for class := range s.partial {
		s.partial[class] = s.partial[class][:0]
	}
	for bi := uint32(0); bi < s.nblocks; bi++ {
		b := &s.blocks[bi]
		switch {
		case b.class >= 0:
			s.sweepSmallBlock(bi, b, &res)
		case b.class == blkLargeHead:
			s.sweepLargeSpan(bi, b, &res)
		}
	}
	s.stats.ObjectsFreed += uint64(res.ObjectsFreed)
	s.stats.LiveObjects -= uint64(res.ObjectsFreed)
	s.stats.LiveWords -= uint64(res.WordsFreed)
	return res
}

func (s *Space) sweepSmallBlock(bi uint32, b *blockInfo, res *SweepResult) {
	cellWords := classSizes[b.class]
	ncells := BlockWords / cellWords
	base := blockStart(bi)
	b.freeHead = Nil
	var tail Addr // last free cell, to append in address order
	free := 0
	for c := 0; c < ncells; c++ {
		cell := base + Addr(c*cellWords*WordBytes)
		if bitGet(b.allocBits, c) {
			if s.words[cell.word()]&uint64(FlagMark) != 0 {
				if !s.keepMarks {
					s.words[cell.word()] &^= uint64(FlagMark)
				}
				res.ObjectsLive++
				continue
			}
			// Unreachable: reclaim.
			if s.FreeHook != nil {
				s.FreeHook(cell)
			}
			s.clearCell(bi, c)
			bitClear(b.allocBits, c)
			b.liveCells--
			res.ObjectsFreed++
			res.WordsFreed += cellWords
		}
		// Cell is free: thread it onto the block free list. Zeroing the
		// first word also clears a freed object's stale header flags.
		s.words[cell.word()] = 0
		if tail == Nil {
			b.freeHead = cell
		} else {
			s.words[tail.word()] = uint64(cell)
		}
		tail = cell
		free++
	}
	if b.liveCells == 0 {
		// Whole block is empty: return it to the block pool.
		b.class = blkFree
		b.freeHead = Nil
		s.freeBlocks = append(s.freeBlocks, bi)
		s.dropRows(bi)
		return
	}
	if free > 0 {
		s.partial[b.class] = append(s.partial[b.class], bi)
	}
}

func (s *Space) sweepLargeSpan(bi uint32, b *blockInfo, res *SweepResult) {
	a := blockStart(bi)
	if s.words[a.word()]&uint64(FlagMark) != 0 {
		if !s.keepMarks {
			s.words[a.word()] &^= uint64(FlagMark)
		}
		res.ObjectsLive++
		return
	}
	if s.FreeHook != nil {
		s.FreeHook(a)
	}
	s.clearCell(bi, 0)
	s.dropRows(bi)
	n := int(b.spanLen)
	for i := 0; i < n; i++ {
		blk := &s.blocks[bi+uint32(i)]
		blk.class = blkFree
		blk.liveCells = 0
		s.freeBlocks = append(s.freeBlocks, bi+uint32(i))
	}
	s.words[a.word()] = 0
	res.ObjectsFreed++
	res.WordsFreed += n * BlockWords
}

// ForEachObject calls fn for every allocated object, in address order,
// stopping early if fn returns false. It is used by heap dumps, invariant
// checks, and tests.
func (s *Space) ForEachObject(fn func(Addr) bool) {
	for bi := uint32(0); bi < s.nblocks; bi++ {
		b := &s.blocks[bi]
		switch {
		case b.class >= 0:
			cellWords := classSizes[b.class]
			ncells := BlockWords / cellWords
			base := blockStart(bi)
			for c := 0; c < ncells; c++ {
				if bitGet(b.allocBits, c) {
					if !fn(base + Addr(c*cellWords*WordBytes)) {
						return
					}
				}
			}
		case b.class == blkLargeHead:
			if b.liveCells > 0 {
				if !fn(blockStart(bi)) {
					return
				}
			}
		}
	}
}
