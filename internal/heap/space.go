package heap

import (
	"fmt"
	"slices"
)

// Size classes for small objects, in words (header included). Objects larger
// than the last class are allocated as dedicated block spans.
var classSizes = [...]int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

const (
	numClasses    = len(classSizes)
	maxSmallWords = 256
)

// MaxHeapBytes is the largest heap an Addr (a uint32 byte offset) can address.
const MaxHeapBytes = 1 << 32

// classOf maps an object size in words to the smallest class holding it;
// padBits[class] is the last word of a block's allocation bitmap with only
// the bits past the class's last cell set.
var (
	classOf [maxSmallWords + 1]uint8
	padBits [numClasses]uint64
)

func init() {
	for class := numClasses - 1; class >= 0; class-- {
		for size := 0; size <= classSizes[class]; size++ {
			classOf[size] = uint8(class)
		}
		padBits[class] = ^uint64(0) << ((BlockWords/classSizes[class]-1)%64 + 1)
	}
}

// classFor returns the smallest size class holding size words.
func classFor(size int) int { return int(classOf[size]) }

// Block states stored in blockInfo.class for non-small blocks.
const (
	blkFree      = -1 // unused block
	blkLargeHead = -2 // first block of a large-object span
	blkLargeCont = -3 // continuation block of a large-object span
	blkReserved  = -4 // block 0: reserved so Addr 0 stays invalid
)

// blockInfo is the per-block metadata: which size class the block is carved
// into and its allocation bitmap, the only record of which cells are free. A
// free cell's words are unspecified; every reader goes through the alloc bit.
type blockInfo struct {
	class     int16 // size-class index, or blkFree/blkLargeHead/blkLargeCont
	spanLen   int32 // blkLargeHead: number of blocks in the span
	cursor    int32 // no allocBits word below this index has a clear bit
	liveCells int32 // number of allocated cells in the block
	// allocBits holds one bit per cell; the pad bits past the last cell
	// stay set so they never read as free. Nil until the block is carved.
	allocBits []uint64
}

// cellBits returns word w of the allocation bitmap minus the pad bits.
func (b *blockInfo) cellBits(w int) uint64 {
	m := b.allocBits[w]
	if w == len(b.allocBits)-1 {
		m &^= padBits[b.class]
	}
	return m
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
	// DeadFreed is the cumulative number of reclaimed objects whose header
	// carried FlagDead: the asserted-dead objects the sweeps verified.
	DeadFreed uint64
}

// Space is the managed heap: one large word array carved into blocks of
// equal-sized cells, each block with an allocation bitmap. It is non-moving,
// as the paper's MarkSweep collector requires (header bits and registered
// addresses stay valid).
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

	// prov is the allocation-site provenance table; nil (the default) costs
	// one nil-check on the sited-allocation path.
	prov *Provenance

	// tables are the cell-indexed side tables (celltable.go) whose entries
	// the sweep clears for every cell it frees.
	tables []*CellTable

	// liveByType is nil until CountLiveByType; from then on every sweep
	// refills it with its survivors per TypeID.
	liveByType []int64

	stats Stats
}

// NewSpace creates a heap of at least heapBytes bytes (rounded up to whole
// blocks; block 0 is reserved so that Addr 0 means nil). It panics when
// heapBytes exceeds MaxHeapBytes: blocks past that would alias lower ones.
func NewSpace(reg *Registry, heapBytes int) *Space {
	if heapBytes < 2*BlockBytes {
		heapBytes = 2 * BlockBytes
	}
	if heapBytes > MaxHeapBytes {
		panic(fmt.Sprintf("heap: NewSpace: %d bytes exceeds the %d-byte (4 GiB) limit of a 32-bit Addr", heapBytes, MaxHeapBytes))
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
	nw := (BlockWords/classSizes[class] + 63) / 64
	b.class = int16(class)
	b.liveCells = 0
	b.cursor = 0
	if cap(b.allocBits) < nw {
		b.allocBits = make([]uint64, nw)
	} else {
		b.allocBits = b.allocBits[:nw]
		clear(b.allocBits)
	}
	b.allocBits[nw-1] = padBits[class]
	s.partial[class] = append(s.partial[class], bi)
	return true
}

// findRun removes the lowest run of n contiguous free blocks from the free
// list and returns its first index, or false if no run exists.
func (s *Space) findRun(n int) (uint32, bool) {
	fb := s.freeBlocks
	// Ascending unless a sweep appended freed blocks behind older entries.
	if !slices.IsSorted(fb) {
		slices.Sort(fb)
	}
	run := 0
	for i := range fb {
		if i > 0 && fb[i] == fb[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run >= n {
			first := fb[i+1-run]
			s.freeBlocks = append(fb[:i+1-run], fb[i+1:]...)
			return first, true
		}
	}
	return 0, false
}

// cellIndex returns the cell number of addr within its block.
func (s *Space) cellIndex(b *blockInfo, a Addr) int {
	off := int(uint32(a) % BlockBytes)
	return off / (classSizes[b.class] * WordBytes)
}

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
		return cellStart == a && b.cellBits(ci>>6)>>(ci&63)&1 != 0
	case b.class == blkLargeHead:
		return a == blockStart(a.block()) && a.block() != 0
	default:
		return false
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
