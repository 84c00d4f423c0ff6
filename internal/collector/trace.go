package collector

import "gcassert/internal/heap"

// visitedBit marks a worklist entry whose children are currently being (or
// have been) traced. Addresses are 8-byte aligned, so bit 0 is always free —
// the same spare bit the paper steals on word-aligned Jikes references.
const visitedBit heap.Addr = 1

// markBase is the Base-configuration trace: plain depth-first marking with
// no path tracking and no assertion checks. This is what an unmodified
// mark-sweep collector does.
func (c *Collector) markBase(col *Collection) {
	c.stack = c.stack[:0]
	c.col = col
	c.roots.Roots(func(r Root) {
		a := *r.Slot
		if a != heap.Nil && !c.space.Marked(a) {
			c.space.SetMark(a)
			col.ObjectsMarked++
			c.stack = append(c.stack, a)
		}
		col.RootsScanned++
	})
	for len(c.stack) > 0 {
		a := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.space.ForEachRef(a, c.visitBase)
	}
	c.col = nil
}

func (c *Collector) visitBase(slot int, t heap.Addr) {
	if !c.space.Marked(t) {
		c.space.SetMark(t)
		c.col.ObjectsMarked++
		c.stack = append(c.stack, t)
	}
}

// markInfra is the Infrastructure-configuration trace: depth-first marking
// with the visited-bit path-reconstruction discipline and a per-edge hook
// dispatch. Each root is drained to completion before the next so the root
// description of the current path is always known.
func (c *Collector) markInfra(col *Collection) {
	c.stack = c.stack[:0]
	c.col = col
	c.roots.Roots(func(r Root) {
		col.RootsScanned++
		a := *r.Slot
		if a == heap.Nil {
			return
		}
		c.curRootDesc = r.Desc
		flags := c.space.Flags(a)
		marked := flags&heap.FlagMark != 0
		if c.hooks != nil && flags&heap.AssertFlags != 0 {
			switch c.hooks.OnEdge(c, heap.Nil, -1, a, marked) {
			case EdgeClear:
				*r.Slot = heap.Nil
				return
			case EdgeSkip:
				return
			}
		}
		if marked {
			return
		}
		c.space.SetMark(a)
		col.ObjectsMarked++
		c.stack = append(c.stack, a)
		c.drainInfra(col)
	})
	c.col = nil
}

// drainInfra processes the worklist with the path-tracking discipline: pop an
// entry; if its visited bit is set all its children are done, discard it;
// otherwise set the bit, push it back, and scan its children on top of it.
func (c *Collector) drainInfra(col *Collection) {
	for len(c.stack) > 0 {
		top := c.stack[len(c.stack)-1]
		if top&visitedBit != 0 {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		c.stack[len(c.stack)-1] = top | visitedBit
		c.curParent = top
		c.space.ForEachRef(top, c.visitInfra)
	}
}

func (c *Collector) visitInfra(slot int, t heap.Addr) {
	// One header load yields both the mark bit and the assertion flags; the
	// engine is consulted only when a flag is set, so the common edge costs
	// a mask test.
	flags := c.space.Flags(t)
	marked := flags&heap.FlagMark != 0
	if c.hooks != nil && flags&heap.AssertFlags != 0 {
		switch c.hooks.OnEdge(c, c.curParent, slot, t, marked) {
		case EdgeClear:
			c.space.ClearRefSlot(c.curParent, slot)
			return
		case EdgeSkip:
			return
		}
	}
	if !marked {
		c.space.SetMark(t)
		c.col.ObjectsMarked++
		c.stack = append(c.stack, t)
	}
}

// CurrentPath returns the root-to-current-object path implied by the
// worklist: every entry whose visited bit is set, bottom first, with the bit
// stripped. It is only valid while a violation hook is executing. The slice
// is freshly allocated — violations are rare, so this does not affect the
// steady-state cost of tracing.
func (c *Collector) CurrentPath() []heap.Addr {
	var path []heap.Addr
	for _, e := range c.stack {
		if e&visitedBit != 0 {
			path = append(path, e&^visitedBit)
		}
	}
	return path
}

// CurrentRoot returns the description of the root whose subtree is being
// traced. Only meaningful during the mark phase.
func (c *Collector) CurrentRoot() string { return c.curRootDesc }
