// Package heap implements the managed heap substrate for the GC-assertions
// runtime: a word-addressed, typed object heap with header flag bits and a
// segregated-fit block allocator, in the style of a non-moving mark-sweep
// space (Jikes RVM MarkSweep, which the paper builds on).
//
// Objects live in a single word array. An Addr is a byte offset into that
// array; all objects are 8-byte aligned, so the three low bits of every
// address are zero. The collector exploits bit 0 for its path-reconstruction
// worklist trick, exactly as the paper does with word-aligned Java objects.
//
// A Space, with its side tables, is touched by one goroutine at a time:
// the mutator and the stop-the-world collector take turns on the runtime's
// goroutine, so every access is a plain load or store.
package heap

// Word and alignment constants for the managed space.
const (
	// WordBytes is the size of a heap word in bytes. Addresses are always
	// word-aligned, leaving AlignBits low bits free in every Addr.
	WordBytes = 8
	// AlignBits is the number of guaranteed-zero low bits in an Addr.
	AlignBits = 3

	// BlockWords is the number of words in an allocation block (32 KiB).
	BlockWords = 4096
	// BlockBytes is the byte size of an allocation block.
	BlockBytes = BlockWords * WordBytes
)

// Addr is the address of a managed object: a byte offset into the heap's
// word array. The zero Addr is the nil reference. Every valid Addr is
// word-aligned (its low AlignBits bits are zero).
type Addr uint32

// Nil is the null reference.
const Nil Addr = 0

// IsNil reports whether the address is the null reference.
func (a Addr) IsNil() bool { return a == Nil }

// word returns the word index of the address within the heap array.
func (a Addr) word() uint32 { return uint32(a) / WordBytes }

// block returns the block index containing the address.
func (a Addr) block() uint32 { return uint32(a) / BlockBytes }

// aligned reports whether the address is word-aligned.
func (a Addr) aligned() bool { return a%WordBytes == 0 }
