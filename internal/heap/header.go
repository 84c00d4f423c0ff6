package heap

// Object header layout. Every object starts with a single header word:
//
//	bits  0..7   flag bits (mark, dead, unshared, owned, ...)
//	bits  8..31  TypeID (24 bits)
//	bits 32..63  array length (arrays only)
//
// The flag bits are the "spare bits in the object header" the paper uses to
// record assert-dead and assert-unshared marks with zero space overhead
// (§2.3.1, §2.5.1). The collector's mark bit lives alongside them.
const (
	flagBits   = 8
	typeIDBits = 24
	maxTypeID  = 1<<typeIDBits - 1

	typeIDShift = flagBits
	lengthShift = flagBits + typeIDBits
)

// Flag is a header flag bit.
type Flag uint64

// Header flags.
const (
	// FlagMark is the collector's mark bit.
	FlagMark Flag = 1 << 0
	// FlagDead records an assert-dead on this object: it must be unreachable
	// at the next collection.
	FlagDead Flag = 1 << 1
	// FlagUnshared records an assert-unshared: at most one incoming pointer.
	FlagUnshared Flag = 1 << 2
	// FlagOwned is set during the ownership phase when an ownee is reached
	// from its asserted owner; cleared before each collection.
	FlagOwned Flag = 1 << 3
	// FlagOwnee marks an object registered as an ownee of some owner, so the
	// tracer can truncate scans and validate ownership without a map lookup.
	FlagOwnee Flag = 1 << 4
	// FlagOwner marks an object registered as an owner.
	FlagOwner Flag = 1 << 5

	flagMask = 1<<flagBits - 1
)

// AssertFlags are the header bits that make an object interesting to the
// assertion engine at trace time. The collector tests them inline (one mask
// on the already-loaded header word) and only calls into the engine when one
// is set — the paper's point that the flag checks ride on header reads the
// tracer performs anyway.
const AssertFlags = FlagDead | FlagUnshared | FlagOwnee

// makeHeader builds a header word for a fresh object.
func makeHeader(t TypeID, arrayLen int) uint64 {
	return uint64(t)<<typeIDShift | uint64(arrayLen)<<lengthShift
}

func headerType(h uint64) TypeID { return TypeID(h >> typeIDShift & maxTypeID) }
func headerLen(h uint64) int     { return int(h >> lengthShift) }

// TypeOf returns the type of the object at a.
func (s *Space) TypeOf(a Addr) TypeID { return headerType(s.words[a.word()]) }

// ArrayLen returns the array length stored in the header of the object at a.
// For non-array objects it returns 0.
func (s *Space) ArrayLen(a Addr) int { return headerLen(s.words[a.word()]) }

// HasFlag reports whether the object at a has the given header flag set.
func (s *Space) HasFlag(a Addr, f Flag) bool { return s.words[a.word()]&uint64(f) != 0 }

// SetFlag sets a header flag on the object at a.
func (s *Space) SetFlag(a Addr, f Flag) { s.words[a.word()] |= uint64(f) }

// ClearFlag clears a header flag on the object at a.
func (s *Space) ClearFlag(a Addr, f Flag) { s.words[a.word()] &^= uint64(f) }

// Marked reports whether the object's mark bit is set.
func (s *Space) Marked(a Addr) bool { return s.HasFlag(a, FlagMark) }

// SetMark sets the object's mark bit.
func (s *Space) SetMark(a Addr) { s.SetFlag(a, FlagMark) }

// ClearMark clears the object's mark bit.
func (s *Space) ClearMark(a Addr) { s.ClearFlag(a, FlagMark) }
