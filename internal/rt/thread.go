package rt

import (
	"fmt"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// Thread is a mutator context. Its frames' slots are scanned as GC roots.
// Threads are cooperative: they share the runtime's single-goroutine
// stop-the-world discipline, like the logical threads of the paper's
// benchmarks under a stop-the-world collector.
type Thread struct {
	rt       *Runtime
	id       uint64
	name     string
	frames   []*Frame
	inRegion bool

	// allocObjects/allocWords count this thread's allocations cumulatively;
	// windowWords is the explainer's per-window snapshot. Maintained only
	// when the runtime's pressure tracker is on (one nil-check per
	// allocation otherwise).
	allocObjects uint64
	allocWords   uint64
	windowWords  uint64
}

// Frame is one shadow-stack frame holding local reference slots.
type Frame struct {
	slots []heap.Addr
	desc  string
}

// ID returns the thread's identifier.
func (t *Thread) ID() uint64 { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Push creates a frame with n local slots and returns it.
func (t *Thread) Push(n int) *Frame {
	f := &Frame{slots: make([]heap.Addr, n), desc: t.name + ".locals"}
	t.frames = append(t.frames, f)
	return f
}

// Pop discards the top frame; its slots stop being roots.
func (t *Thread) Pop() {
	if len(t.frames) == 0 {
		panic("rt: Pop on empty frame stack")
	}
	t.frames = t.frames[:len(t.frames)-1]
}

// Depth returns the number of live frames.
func (t *Thread) Depth() int { return len(t.frames) }

// Set stores a reference in slot i.
func (f *Frame) Set(i int, v heap.Addr) { f.slots[i] = v }

// Get loads slot i.
func (f *Frame) Get(i int) heap.Addr { return f.slots[i] }

// Add appends a new slot holding v and returns its index.
func (f *Frame) Add(v heap.Addr) int {
	f.slots = append(f.slots, v)
	return len(f.slots) - 1
}

// Len returns the number of slots in the frame.
func (f *Frame) Len() int { return len(f.slots) }

// Truncate shrinks the frame back to n slots, dropping the roots above it.
// Recursive allocation patterns pair Add with Truncate the way a real stack
// frame's locals go out of scope.
func (f *Frame) Truncate(n int) {
	if n < 0 || n > len(f.slots) {
		panic("rt: Truncate out of range")
	}
	f.slots = f.slots[:n]
}

// Resize sets the frame's scanned window to its first n slots and returns
// them, for a caller that runs its own stack inside one frame and writes the
// slots directly. Within capacity nothing is written: slots the caller left
// above a smaller window come back as they were, so the caller clears what
// it pops. Past capacity the backing array is reallocated (new slots Nil)
// and every slice returned earlier is stale.
func (f *Frame) Resize(n int) []heap.Addr {
	if n > cap(f.slots) {
		f.grow(n)
	}
	f.slots = f.slots[:n]
	return f.slots
}

func (f *Frame) grow(n int) {
	grown := make([]heap.Addr, max(n, 2*cap(f.slots)))
	copy(grown, f.slots[:cap(f.slots)])
	f.slots = grown
}

// New allocates an object of type typ, collecting when the heap is
// exhausted. It panics with *OOMError if memory cannot be found.
func (t *Thread) New(typ heap.TypeID) heap.Addr { return t.alloc(typ, 0, 0) }

// NewArray allocates an array of type typ with n elements.
func (t *Thread) NewArray(typ heap.TypeID, n int) heap.Addr { return t.alloc(typ, n, 0) }

// NewAt allocates like New and records the allocation site (from
// Runtime.RegisterAllocSite) against the object, subject to the provenance
// sampling rate. With provenance disabled, RegisterAllocSite returns the
// unknown site and NewAt degrades to New with no extra work.
func (t *Thread) NewAt(typ heap.TypeID, site heap.SiteID) heap.Addr { return t.alloc(typ, 0, site) }

// NewArrayAt allocates like NewArray and records the allocation site.
func (t *Thread) NewArrayAt(typ heap.TypeID, n int, site heap.SiteID) heap.Addr {
	return t.alloc(typ, n, site)
}

func (t *Thread) alloc(typ heap.TypeID, n int, site heap.SiteID) heap.Addr {
	r := t.rt
	a, ok := r.space.Allocate(typ, n)
	if !ok {
		r.gc.Collect(collector.ReasonAllocFailure)
		a, ok = r.space.Allocate(typ, n)
		if !ok {
			panic(&OOMError{Type: typ, Len: n, Live: r.space.Stats()})
		}
	}
	if r.pressure != nil {
		t.allocObjects++
		t.allocWords += uint64(r.space.CellWords(a))
	}
	if site != 0 {
		r.space.RecordSite(a, site)
	}
	if t.inRegion {
		r.engine.RecordRegionAlloc(t.id, a)
	}
	return a
}

// StartRegion opens a start-region bracket on this thread (§2.3.2): every
// object the thread allocates until AssertAllDead is recorded.
func (t *Thread) StartRegion() {
	t.rt.mustEngine("StartRegion").StartRegion(t.id)
	t.inRegion = true
}

// InRegion reports whether the thread has an open region.
func (t *Thread) InRegion() bool { return t.inRegion }

// AssertAllDead closes the region and asserts death of everything allocated
// in it that is still live, returning the number of objects asserted.
func (t *Thread) AssertAllDead() int {
	if !t.inRegion {
		panic(fmt.Sprintf("rt: AssertAllDead on thread %q with no active region", t.name))
	}
	t.inRegion = false
	return t.rt.engine.AssertAllDead(t.id)
}
