package collector

import (
	"fmt"

	"gcassert/internal/heap"
)

// VerifyMark checks the mark phase's postcondition, DESIGN.md invariant 14:
// every root target is marked, and the marked set is closed under edges — no
// marked object refers to an unmarked object or to a free cell. Together
// these give marked ⊇ reachable without a second trace that knows about
// flags, phases or lanes. It reads the slots through ForEachRef, not the
// marker's scan kernel. It is only meaningful between the mark and the
// sweep, and only for heaps without ownership assertions: the ownership
// pre-phase leaves the back edges to an owner unmarked (ROADMAP item 1).
func (c *Collector) VerifyMark() error {
	s := c.space
	var err error
	c.roots.Roots(func(r Root) {
		if a := *r.Slot; err == nil && a != heap.Nil && !s.Marked(a) {
			err = fmt.Errorf("root %s holds unmarked %s@%#x", r.Desc, s.TypeName(a), uint32(a))
		}
	})
	s.ForEachObject(func(a heap.Addr) bool {
		if err != nil || !s.Marked(a) {
			return err == nil
		}
		s.ForEachRef(a, func(slot int, t heap.Addr) {
			switch {
			case err != nil:
			case !s.Contains(t):
				err = fmt.Errorf("marked %s@%#x slot %d refers to free cell %#x", s.TypeName(a), uint32(a), slot, uint32(t))
			case !s.Marked(t):
				err = fmt.Errorf("marked %s@%#x slot %d refers to unmarked %s@%#x", s.TypeName(a), uint32(a), slot, s.TypeName(t), uint32(t))
			}
		})
		return err == nil
	})
	return err
}
