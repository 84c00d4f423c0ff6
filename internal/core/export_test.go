package core

import (
	"fmt"

	"gcassert/internal/heap"
)

// CheckOwneeTable verifies side-table invariant 2 (DESIGN.md): a cell has an
// ownee-table entry iff it is allocated and carries FlagOwnee, and every
// entry names a live owner record — one whose ownee list holds the cell
// exactly once. It is exported to the package's external tests only.
func (e *Engine) CheckOwneeTable() error {
	s := e.space
	listed := make(map[heap.Addr]heap.Addr)
	for i := range e.owners {
		rec := &e.owners[i]
		if e.ownerIdx[rec.owner] != i || !s.Contains(rec.owner) || !s.HasFlag(rec.owner, heap.FlagOwner) {
			return fmt.Errorf("owner record %d (%#x) is not indexed, allocated and flagged", i, uint32(rec.owner))
		}
		for _, oe := range rec.ownees {
			if _, dup := listed[oe]; dup {
				return fmt.Errorf("ownee %#x is listed twice", uint32(oe))
			}
			listed[oe] = rec.owner
		}
	}
	if len(e.ownerIdx) != len(e.owners) {
		return fmt.Errorf("%d owner index entries for %d records", len(e.ownerIdx), len(e.owners))
	}
	entries := 0
	var err error
	s.ForEachObject(func(a heap.Addr) bool {
		owner := e.ownerOf(a)
		switch flagged := s.HasFlag(a, heap.FlagOwnee); {
		case owner == heap.Nil && flagged:
			err = fmt.Errorf("%#x carries FlagOwnee but has no table entry", uint32(a))
		case owner != heap.Nil && !flagged:
			err = fmt.Errorf("%#x has table entry %#x but no FlagOwnee", uint32(a), uint32(owner))
		case owner != heap.Nil && listed[a] != owner:
			err = fmt.Errorf("%#x has table entry %#x but is listed under %#x", uint32(a), uint32(owner), uint32(listed[a]))
		}
		if owner != heap.Nil {
			entries++
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// Every allocated entry is accounted for above, so any surplus in the
	// table's count is an entry on a free cell; any surplus in the lists is
	// a stale address.
	if entries != e.owneeTab.Len() || entries != len(listed) {
		return fmt.Errorf("%d entries on allocated cells, table counts %d, lists hold %d", entries, e.owneeTab.Len(), len(listed))
	}
	return nil
}
