package heap

import (
	"math/bits"
	"slices"
)

// SweepResult summarizes one sweep pass.
type SweepResult struct {
	// ObjectsFreed is the number of objects reclaimed.
	ObjectsFreed int
	// WordsFreed is the number of words the reclaimed cells and spans held.
	WordsFreed int
	// ObjectsLive is the number of objects that survived (marks cleared).
	ObjectsLive int
}

// Sweep reclaims every allocated object whose mark bit is clear by clearing
// its alloc bit, clears the survivors' mark bits, and returns empty blocks to
// the block pool. It visits allocated cells only and stores into no free
// cell: it costs what was allocated, not what the heap holds. Reclaimed
// objects whose header carries FlagDead are counted into Stats.DeadFreed,
// the assertion engine's DeadVerified; once CountLiveByType is on, each
// block's survivors are counted per TypeID right after it is swept.
//
// Sweep corresponds to the sweep phase of the paper's MarkSweep collector;
// the collector package calls it after tracing.
func (s *Space) Sweep() SweepResult {
	var res SweepResult
	for class := range s.partial {
		s.partial[class] = s.partial[class][:0]
	}
	if s.liveByType != nil {
		n := s.reg.NumTypes()
		s.liveByType = slices.Grow(s.liveByType[:0], n)[:n]
		clear(s.liveByType)
	}
	for bi := uint32(0); bi < s.nblocks; bi++ {
		b := &s.blocks[bi]
		switch {
		case b.class >= 0:
			s.sweepSmallBlock(bi, b, &res)
			if s.liveByType != nil && b.class >= 0 {
				s.countLive(bi, b)
			}
		case b.class == blkLargeHead:
			s.sweepLargeSpan(bi, b, &res)
		}
	}
	res.ObjectsLive = int(s.stats.LiveObjects) - res.ObjectsFreed
	s.stats.ObjectsFreed += uint64(res.ObjectsFreed)
	s.stats.LiveObjects -= uint64(res.ObjectsFreed)
	s.stats.LiveWords -= uint64(res.WordsFreed)
	return res
}

func (s *Space) sweepSmallBlock(bi uint32, b *blockInfo, res *SweepResult) {
	cellWords := classSizes[b.class]
	base := blockStart(bi).word()
	rows := s.hasRows(bi)
	freed, flagged := 0, uint64(0)
	for w := range b.allocBits {
		var dead uint64
		for m := b.cellBits(w); m != 0; m &= m - 1 {
			c := w<<6 + bits.TrailingZeros64(m)
			hw := base + uint32(c*cellWords)
			h := s.words[hw]
			if h&uint64(FlagMark) != 0 {
				s.words[hw] = h &^ uint64(FlagMark)
				continue
			}
			// Unreachable: reclaim. Which dying cells carry FlagDead follows
			// no pattern a branch predictor could learn, so count by adding.
			dead |= m & -m
			flagged += h / uint64(FlagDead) & 1
			if rows {
				s.clearCell(bi, c)
			}
		}
		if dead != 0 {
			b.allocBits[w] &^= dead
			if int32(w) < b.cursor {
				b.cursor = int32(w)
			}
			freed += bits.OnesCount64(dead)
		}
	}
	s.stats.DeadFreed += flagged
	b.liveCells -= int32(freed)
	res.ObjectsFreed += freed
	res.WordsFreed += freed * cellWords
	if b.liveCells == 0 {
		// Whole block is empty: return it to the block pool.
		b.class = blkFree
		s.freeBlocks = append(s.freeBlocks, bi)
		s.dropRows(bi)
		return
	}
	if int(b.liveCells) < BlockWords/cellWords {
		s.partial[b.class] = append(s.partial[b.class], bi)
	}
}

// countLive adds the survivors of a carved block the sweep has just left to
// liveByType. The sweep loaded their headers a moment before, so the loads
// hit the cache, and the sweep loop itself carries no counting branch.
func (s *Space) countLive(bi uint32, b *blockInfo) {
	cellWords := classSizes[b.class]
	base := blockStart(bi).word()
	for w := range b.allocBits {
		for m := b.cellBits(w); m != 0; m &= m - 1 {
			c := w<<6 + bits.TrailingZeros64(m)
			s.liveByType[headerType(s.words[base+uint32(c*cellWords)])]++
		}
	}
}

func (s *Space) sweepLargeSpan(bi uint32, b *blockInfo, res *SweepResult) {
	hw := blockStart(bi).word()
	h := s.words[hw]
	if h&uint64(FlagMark) != 0 {
		s.words[hw] = h &^ uint64(FlagMark)
		if s.liveByType != nil {
			s.liveByType[headerType(h)]++
		}
		return
	}
	if h&uint64(FlagDead) != 0 {
		s.stats.DeadFreed++
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
	res.ObjectsFreed++
	res.WordsFreed += n * BlockWords
}

// CountLiveByType makes every later Sweep count its survivors per TypeID.
// It is enable-only; the assertion engine turns it on when the first
// instance limit is registered (§2.4.1).
func (s *Space) CountLiveByType() {
	if s.liveByType == nil {
		s.liveByType = []int64{}
	}
}

// LiveByType returns how many objects of type t survived the last Sweep,
// or 0 when that sweep did not count or t was registered after it.
func (s *Space) LiveByType(t TypeID) int64 {
	if int(t) >= len(s.liveByType) {
		return 0
	}
	return s.liveByType[t]
}

// ForEachObject calls fn for every allocated object, in address order,
// stopping early if fn returns false. It is used by heap dumps, invariant
// checks, and tests.
func (s *Space) ForEachObject(fn func(Addr) bool) {
	for bi := uint32(0); bi < s.nblocks; bi++ {
		b := &s.blocks[bi]
		switch {
		case b.class >= 0:
			cellBytes := classSizes[b.class] * WordBytes
			base := blockStart(bi)
			for w := range b.allocBits {
				for m := b.cellBits(w); m != 0; m &= m - 1 {
					c := w<<6 + bits.TrailingZeros64(m)
					if !fn(base + Addr(c*cellBytes)) {
						return
					}
				}
			}
		case b.class == blkLargeHead:
			if !fn(blockStart(bi)) {
				return
			}
		}
	}
}
