package heap

import (
	"fmt"
	"sort"
)

// Size classes for small objects, in words (header included). Objects larger
// than the last class are allocated as dedicated block spans.
var classSizes = [...]int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

const (
	numClasses    = len(classSizes)
	maxSmallWords = 256
)

// classFor returns the smallest size class holding size words.
func classFor(size int) int {
	for i, c := range classSizes {
		if size <= c {
			return i
		}
	}
	panic(fmt.Sprintf("heap: no size class for %d words", size))
}

// Block states stored in blockInfo.class for non-small blocks.
const (
	blkFree      = -1 // unused block
	blkLargeHead = -2 // first block of a large-object span
	blkLargeCont = -3 // continuation block of a large-object span
	blkReserved  = -4 // block 0: reserved so Addr 0 stays invalid
)

// blockInfo is the per-block metadata: which size class the block is carved
// into, its intrusive free-cell list, and an allocation bitmap so the sweeper
// can distinguish live cells from free ones.
type blockInfo struct {
	class     int16  // size-class index, or blkFree/blkLargeHead/blkLargeCont
	spanLen   int32  // blkLargeHead: number of blocks in the span
	freeHead  Addr   // head of this block's free-cell list (Nil if none)
	liveCells int32  // number of allocated cells in the block
	allocBits []byte // one bit per cell; nil until the block is carved
}

// Stats accumulates allocation statistics for the space.
type Stats struct {
	// ObjectsAllocated is the cumulative number of objects allocated.
	ObjectsAllocated uint64
	// WordsAllocated is the cumulative number of words allocated (cell sizes).
	WordsAllocated uint64
	// ObjectsFreed is the cumulative number of objects reclaimed by sweeps.
	ObjectsFreed uint64
	// LiveObjects is the current number of allocated objects.
	LiveObjects uint64
	// LiveWords is the current number of words held by allocated cells.
	LiveWords uint64
}

// Space is the managed heap: one large word array carved into blocks, with
// per-size-class free lists. It is non-moving, as the paper's MarkSweep
// collector requires (header bits and registered addresses stay valid).
type Space struct {
	reg     *Registry
	words   []uint64
	nblocks uint32
	blocks  []blockInfo

	// freeBlocks holds indices of free blocks, sorted ascending so large
	// allocations can find contiguous runs. Small allocations pop the end.
	freeBlocks []uint32

	// partial[class] holds indices of carved blocks with at least one free
	// cell; the allocator services requests from the last entry.
	partial [numClasses][]uint32

	// FreeHook, when non-nil, is invoked for every object freed by Sweep,
	// before its cell is recycled. The assertion engine uses it to prune
	// weak registrations (region queues, ownee lists) for dead objects.
	FreeHook func(Addr)

	// WriteBarrier, when non-nil, is invoked on every reference store
	// (SetRef/SetRefAt) with the source object and new value. The
	// generational collector uses it to maintain its remembered set.
	WriteBarrier func(src, val Addr)

	// keepMarks is the sticky-marks setting of the in-progress sweep.
	keepMarks bool

	// prov is the allocation-site provenance table; nil (the default) costs
	// one nil-check on the sited-allocation path.
	prov *Provenance

	// tables are the cell-indexed side tables (celltable.go) whose entries
	// the sweep clears for every cell it frees.
	tables []*CellTable

	stats Stats
}

// NewSpace creates a heap of at least heapBytes bytes (rounded up to whole
// blocks; block 0 is reserved so that Addr 0 means nil).
func NewSpace(reg *Registry, heapBytes int) *Space {
	if heapBytes < 2*BlockBytes {
		heapBytes = 2 * BlockBytes
	}
	nblocks := uint32((heapBytes + BlockBytes - 1) / BlockBytes)
	s := &Space{
		reg:     reg,
		words:   make([]uint64, int(nblocks)*BlockWords),
		nblocks: nblocks,
		blocks:  make([]blockInfo, nblocks),
	}
	// Block 0 is reserved: Addr 0 must stay invalid.
	s.blocks[0].class = blkReserved
	for i := uint32(1); i < nblocks; i++ {
		s.blocks[i].class = blkFree
		s.freeBlocks = append(s.freeBlocks, i)
	}
	return s
}

// Registry returns the type registry the space was created with.
func (s *Space) Registry() *Registry { return s.reg }

// Stats returns a snapshot of the space's allocation statistics.
func (s *Space) Stats() Stats { return s.stats }

// CapacityWords returns the total heap capacity in words.
func (s *Space) CapacityWords() int { return len(s.words) }

// OccupancyPct returns the share of the heap currently held by allocated
// cells, as a percentage of capacity. LiveWords is maintained on every
// allocation and reclamation, so read at collection-trigger time this is the
// occupancy that forced the collection — garbage not yet swept included.
func (s *Space) OccupancyPct() float64 {
	if len(s.words) == 0 {
		return 0
	}
	return 100 * float64(s.stats.LiveWords) / float64(len(s.words))
}

// blockStart returns the address of the first word of block bi.
func blockStart(bi uint32) Addr { return Addr(bi * BlockBytes) }

// carveBlock takes a free block, carves it into cells of the given class,
// and registers it as a partial block. It reports whether a block was free.
func (s *Space) carveBlock(class int) bool {
	if len(s.freeBlocks) == 0 {
		return false
	}
	bi := s.freeBlocks[len(s.freeBlocks)-1]
	s.freeBlocks = s.freeBlocks[:len(s.freeBlocks)-1]
	b := &s.blocks[bi]
	cellWords := classSizes[class]
	ncells := BlockWords / cellWords
	b.class = int16(class)
	b.liveCells = 0
	if b.allocBits == nil || len(b.allocBits) < (ncells+7)/8 {
		b.allocBits = make([]byte, (ncells+7)/8)
	} else {
		for i := range b.allocBits {
			b.allocBits[i] = 0
		}
	}
	// Thread the free list through the cells, front to back.
	base := blockStart(bi)
	b.freeHead = base
	for c := 0; c < ncells; c++ {
		cell := base + Addr(c*cellWords*WordBytes)
		next := Nil
		if c+1 < ncells {
			next = cell + Addr(cellWords*WordBytes)
		}
		s.words[cell.word()] = uint64(next)
	}
	s.partial[class] = append(s.partial[class], bi)
	return true
}

// findRun locates n contiguous free blocks and removes them from the free
// list, returning the first index. It returns false if no run exists.
func (s *Space) findRun(n int) (uint32, bool) {
	if n <= 0 {
		n = 1
	}
	fb := s.freeBlocks
	if len(fb) < n {
		return 0, false
	}
	sort.Slice(fb, func(i, j int) bool { return fb[i] < fb[j] })
	runStart := 0
	for i := 1; i <= len(fb); i++ {
		if i < len(fb) && fb[i] == fb[i-1]+1 {
			if i-runStart+1 >= n {
				first := fb[runStart]
				s.freeBlocks = append(fb[:runStart], fb[runStart+n:]...)
				return first, true
			}
			continue
		}
		if i-runStart >= n {
			first := fb[runStart]
			s.freeBlocks = append(fb[:runStart], fb[runStart+n:]...)
			return first, true
		}
		runStart = i
	}
	return 0, false
}

// cellIndex returns the cell number of addr within its block.
func (s *Space) cellIndex(b *blockInfo, a Addr) int {
	off := int(uint32(a) % BlockBytes)
	return off / (classSizes[b.class] * WordBytes)
}

func bitGet(bits []byte, i int) bool { return bits[i>>3]&(1<<(i&7)) != 0 }
func bitSet(bits []byte, i int)      { bits[i>>3] |= 1 << (i & 7) }
func bitClear(bits []byte, i int)    { bits[i>>3] &^= 1 << (i & 7) }

// Contains reports whether a is a plausible object address: word-aligned,
// inside the heap, inside an allocated cell. Used by invariant checks.
func (s *Space) Contains(a Addr) bool {
	if a.IsNil() || !a.aligned() || int(a.word()) >= len(s.words) {
		return false
	}
	b := &s.blocks[a.block()]
	switch {
	case b.class >= 0:
		ci := s.cellIndex(b, a)
		cellStart := blockStart(a.block()) + Addr(ci*classSizes[b.class]*WordBytes)
		return cellStart == a && bitGet(b.allocBits, ci)
	case b.class == blkLargeHead:
		return a == blockStart(a.block()) && a.block() != 0
	default:
		return false
	}
}

// CheckRef panics if a is neither nil nor a valid object address. The managed
// runtime calls it on stores in debug configurations.
func (s *Space) CheckRef(a Addr) {
	if !a.IsNil() && !s.Contains(a) {
		panic(fmt.Sprintf("heap: invalid reference %#x", uint32(a)))
	}
}

// CellWords returns the allocator footprint of the object at a in words: its
// size-class cell for small objects, the whole block span for large ones.
// This is the quantity the sweep returns to the free pool when the object
// dies (and what Stats.LiveWords accumulates), so introspection totals built
// from it reconcile exactly against the sweep's accounting.
func (s *Space) CellWords(a Addr) int {
	b := &s.blocks[a.block()]
	switch {
	case b.class >= 0:
		return classSizes[b.class]
	case b.class == blkLargeHead:
		return int(b.spanLen) * BlockWords
	default:
		return 0
	}
}
