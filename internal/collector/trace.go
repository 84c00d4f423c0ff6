package collector

import (
	"math"

	"gcassert/internal/heap"
)

// visitedBit marks a worklist entry whose children are currently being (or
// have been) traced. Addresses are 8-byte aligned, so bit 0 is always free —
// the same spare bit the paper steals on word-aligned Jikes references.
const visitedBit heap.Addr = 1

// numLanes is the number of interleaved depth-first lanes the marker runs.
// A scan waits on the header loads of the object's children; with the
// children of every lane's next object prefetched, the misses of eight
// independent subtrees are in flight while one lane scans.
const numLanes = 8

// probeScans is the length, in object scans, of the window with which a
// collection chooses its regime (mark). A scan in the window is near when
// its object lies within nearBytes of one of the nearRing objects scanned
// before it; a window of which at least three quarters are near chooses the
// sequential regime. The rule counts addresses, not time, so the regime —
// and with it the path each violation reports — depends only on the heap.
const (
	probeScans = 4096
	nearBytes  = 4096
	nearRing   = 8
)

// lane is one depth-first worklist of the marker. stack[base:] holds its
// entries, oldest first: pending entries (marked, not yet scanned) and, in
// Infrastructure mode, visited entries (bit 0 set) whose children are being
// traced. The visited entries, bottom first, spell the path from the lane's
// root to the object being scanned (§2.7). stack[:base] is space freed by
// steals; it is reclaimed when the lane runs dry.
type lane struct {
	stack []heap.Addr
	base  int
	pend  int    // pending entries in stack[base:]
	root  string // the description of the root the lane's path starts at
}

// mark traces everything reachable from the roots with the lanes, in one
// of two regimes:
//
//   - sequential: one lane at a time scans alone, depth first, with no
//     prefetch, taking the next root when it runs dry. This is the paper's
//     one worklist, and it is fastest where the trace has locality the
//     hardware already exploits: objects allocated in the order they are
//     traced.
//   - interleaved (round): the lanes take turns, one object scan per turn.
//     A lane with nothing pending takes the next root, or else steals the
//     oldest pending entry of a lane that holds at least two, with a copy of
//     the path it was pushed under. Every object pushed has the headers of
//     its children prefetched, so that by the time its lane comes back to
//     it the flags its scan reads are in cache. This is fastest where each
//     scan misses the cache on scattered objects.
//
// The first probeScans scans run sequentially (probe) and count how many
// were near the ones before; the rest of the collection interleaves if
// fewer than three quarters were. A collection too small to finish the
// probe runs sequentially, as a single worklist would. Base and
// Infrastructure share this loop and differ in their scan (drain): Base
// pops plain entries and scans them with no checks; Infrastructure keeps
// the visited-bit discipline and stops at flagged edges for the hooks.
func (c *Collector) mark(col *Collection) {
	for i := range c.lanes {
		l := &c.lanes[i]
		l.stack, l.base, l.pend = l.stack[:0], 0, 0
	}
	c.lane = nil
	c.rootBuf = c.rootBuf[:0]
	c.roots.Roots(c.addRoot)
	col.RootsScanned = len(c.rootBuf)
	c.nextRoot, c.marked, c.stop = 0, 0, 0
	if c.infra && c.hooks != nil {
		c.stop = heap.AssertFlags
	}
	interleave := c.window == 0
	if !interleave {
		scans, near := c.probe()
		interleave = scans == c.window && 4*near < 3*scans
	}
	for n := 1; n > 0; {
		if interleave {
			n = c.round()
		} else {
			n = c.alone()
		}
	}
	col.ObjectsMarked = c.marked
	clear(c.rootBuf) // drop the slot pointers until the next cycle
	c.lane = nil
}

// probe runs up to c.window scans in the sequential regime, one at a time,
// and returns how many it ran and how many of those scanned an object near
// one of the nearRing objects scanned before it.
func (c *Collector) probe() (scans, near int) {
	var ring [nearRing]heap.Addr
	c.prefetch = false
	for ; scans < c.window; scans++ {
		l := c.next()
		if l == nil {
			break
		}
		n := len(l.stack) - 1
		for l.stack[n]&visitedBit != 0 {
			n--
		}
		a := l.stack[n]
		for _, r := range ring {
			if r != heap.Nil && max(a, r)-min(a, r) <= nearBytes {
				near++
				break
			}
		}
		ring[scans%nearRing] = a
		c.drain(l, math.MaxInt, 1)
	}
	return scans, near
}

// round is one turn of every lane in the interleaved regime; it returns the
// number of scans, 0 when no work is left. A lane left alone with nothing
// to steal scans on in a tight loop until it holds two pending entries,
// with no prefetch: a chain has no independent work to overlap.
func (c *Collector) round() int {
	busy, canSteal, last := 0, true, 0
	c.prefetch = true
	for i := range c.lanes {
		l := &c.lanes[i]
		if l.pend == 0 {
			l.stack, l.base = l.stack[:0], 0
			if !c.takeRoot(l) && !(canSteal && c.steal(l)) {
				canSteal = false
				continue
			}
		}
		busy, last = busy+1, i
		c.drain(l, math.MaxInt, 1)
	}
	if busy == 1 {
		c.prefetch = false
		busy += c.drain(&c.lanes[last], 2, math.MaxInt)
	}
	return busy
}

// alone is the sequential regime: it runs the lane next names until it runs
// dry, with no prefetch. It returns the number of scans, 0 when no work is
// left.
func (c *Collector) alone() int {
	l := c.next()
	if l == nil {
		return 0
	}
	c.prefetch = false
	return c.drain(l, math.MaxInt, math.MaxInt)
}

// next returns the lane the sequential regime scans: the first with pending
// work, or else lane 0 with the next root; nil when no work is left.
func (c *Collector) next() *lane {
	for i := range c.lanes {
		if l := &c.lanes[i]; l.pend > 0 {
			return l
		}
	}
	l := &c.lanes[0]
	l.stack, l.base = l.stack[:0], 0
	if !c.takeRoot(l) {
		return nil
	}
	return l
}

// takeRoot gives an idle lane the next root whose target it marks. In
// Infrastructure mode a flagged root target is checked first, as an edge
// with no parent, from the lane's empty path.
func (c *Collector) takeRoot(l *lane) bool {
	c.lane = l
	for c.nextRoot < len(c.rootBuf) {
		r := c.rootBuf[c.nextRoot]
		c.nextRoot++
		a := *r.Slot
		if a == heap.Nil {
			continue
		}
		l.root = r.Desc
		flags := c.space.Flags(a)
		marked := flags&heap.FlagMark != 0
		if flags&c.stop != 0 {
			switch c.hooks.OnEdge(c, heap.Nil, -1, a, marked) {
			case EdgeClear:
				*r.Slot = heap.Nil
				continue
			case EdgeSkip:
				continue
			}
		}
		if !marked {
			c.push(l, a)
			c.marked++
			l.pend = 1
			return true
		}
	}
	return false
}

// steal moves the oldest pending entry of a lane holding at least two to the
// idle lane l, after a copy of the visited entries beneath it: the path it
// was pushed under. The victim keeps its own path and the order of the rest.
// A steal costs the depth of that path.
func (c *Collector) steal(l *lane) bool {
	for i := range c.lanes {
		v := &c.lanes[i]
		if v.pend < 2 {
			continue
		}
		j := v.base
		for v.stack[j]&visitedBit != 0 {
			j++
		}
		l.stack = append(append(l.stack, v.stack[v.base:j]...), v.stack[j])
		l.pend, l.root = 1, v.root
		copy(v.stack[v.base+1:j+1], v.stack[v.base:j])
		v.base++
		v.pend--
		return true
	}
	return false
}

// push marks a and appends it to l, prefetching the headers of its children
// when c.prefetch is set. The caller counts it.
func (c *Collector) push(l *lane, a heap.Addr) {
	c.space.SetMark(a)
	l.stack = append(l.stack, a)
	if c.prefetch {
		c.space.PrefetchRefs(a)
	}
}

// scanInfra scans a, whose visited entry tops st, the worklist of l. The
// kernel stops at every child with an assertion flag, which the hooks see;
// one header load yields both the mark bit and the flags, so the common
// edge costs a mask test. It returns the worklist with a's unmarked
// children pushed.
func (c *Collector) scanInfra(l *lane, a heap.Addr, st []heap.Addr) []heap.Addr {
	s := c.space
	st, slot, t := s.MarkChildren(a, 0, c.stop, c.prefetch, st)
	for slot >= 0 {
		l.stack = st // the hooks read the path from it
		marked := s.Marked(t)
		switch c.hooks.OnEdge(c, a, slot, t, marked) {
		case EdgeClear:
			s.ClearRefSlot(a, slot)
		case EdgeProceed:
			if !marked {
				c.push(l, t)
			}
		}
		st, slot, t = s.MarkChildren(a, slot+1, c.stop, c.prefetch, l.stack)
	}
	return st
}

// drain scans l while it holds at least one and fewer than limit pending
// entries and fewer than max scans have run, prefetching the children of
// what it pushes when c.prefetch is set. It returns the number of scans.
// The interleaved regime runs it for one scan per turn, the sequential one
// for as long as the lane has work. It keeps the worklist in locals, as one
// depth-first loop does: Base's loop is the heap's MarkDepthFirst.
func (c *Collector) drain(l *lane, limit, max int) int {
	c.lane = l
	if !c.infra {
		var marked, scans int
		l.stack, marked, scans = c.space.MarkDepthFirst(l.stack, l.base, limit, max, c.prefetch)
		l.pend = len(l.stack) - l.base
		c.marked += marked
		return scans
	}
	// Visited entries above the newest pending one have had all their
	// children traced: each scan first discards them.
	st, pend, scans := l.stack, l.pend, 0
	for ; scans < max && pend > 0 && pend < limit; scans++ {
		n := len(st) - 1
		for st[n]&visitedBit != 0 {
			n--
		}
		a := st[n]
		st[n] = a | visitedBit
		st = c.scanInfra(l, a, st[:n+1])
		c.marked += len(st) - n - 1
		pend += len(st) - n - 2
	}
	l.stack, l.pend = st, pend
	return scans
}

// CurrentPath returns the root-to-current-object path of the lane being
// scanned: every entry of its worklist whose visited bit is set, bottom
// first, with the bit stripped. It is only valid while a violation hook is
// executing. The slice is freshly allocated — violations are rare, so this
// does not affect the steady-state cost of tracing.
func (c *Collector) CurrentPath() []heap.Addr {
	if c.lane == nil {
		return nil
	}
	var path []heap.Addr
	for _, e := range c.lane.stack[c.lane.base:] {
		if e&visitedBit != 0 {
			path = append(path, e&^visitedBit)
		}
	}
	return path
}

// CurrentRoot returns the description of the root whose subtree the lane
// being scanned is tracing. Only meaningful during the mark phase.
func (c *Collector) CurrentRoot() string {
	if c.lane == nil {
		return ""
	}
	return c.lane.root
}
