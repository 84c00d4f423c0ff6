package heap

// CellTable is a side table holding one uint32 per heap cell, reached from
// an Addr through the same block/cell arithmetic as the allocation bitmap.
// The zero value of an entry means "no entry". It backs metadata that does
// not fit in the header's spare bits — the assertion engine's ownee→owner
// relation, the provenance address→site relation — without a hash lookup.
//
// Storage is one row per block, allocated on the first non-zero write into
// that block and dropped when the sweep returns the block to the pool, so a
// table costs nothing until it is used and never more than four bytes per
// cell of the blocks it has entries in.
//
// Invariant (DESIGN.md, side-table invariant 1): an entry is non-zero only
// for an allocated cell. Writers set entries on live objects only, and the
// sweep zeroes the entry of every cell it frees, so a recycled cell can
// never inherit its previous tenant's entry.
//
// A table shares the Space's single-goroutine discipline.
type CellTable struct {
	s *Space
	// rows[bi][c] is the entry of cell c of block bi (a large-object span
	// is the single cell 0 of its head block). rows itself stays nil until
	// the first write.
	rows [][]uint32
	// n is the number of non-zero entries.
	n int
}

// NewCellTable creates an empty side table over the space and registers it
// with the sweep for clear-on-free.
func (s *Space) NewCellTable() *CellTable {
	t := &CellTable{s: s}
	s.tables = append(s.tables, t)
	return t
}

// Get returns the entry of the cell at a, or 0 when it has none.
func (t *CellTable) Get(a Addr) uint32 {
	bi := a.block()
	if int(bi) >= len(t.rows) {
		return 0
	}
	row := t.rows[bi]
	if row == nil {
		return 0
	}
	return row[t.s.cellOf(a)]
}

// Set stores v as the entry of the allocated object at a; v == 0 removes it.
func (t *CellTable) Set(a Addr, v uint32) {
	bi := a.block()
	var row []uint32
	if t.rows != nil {
		row = t.rows[bi]
	}
	if row == nil {
		if v == 0 {
			return
		}
		if t.rows == nil {
			t.rows = make([][]uint32, t.s.nblocks)
		}
		row = make([]uint32, t.s.cellsIn(bi))
		t.rows[bi] = row
	}
	p := &row[t.s.cellOf(a)]
	switch {
	case *p == 0 && v != 0:
		t.n++
	case *p != 0 && v == 0:
		t.n--
	}
	*p = v
}

// Len returns the number of cells that currently have an entry.
func (t *CellTable) Len() int { return t.n }

// cellOf returns the cell number of a within its block: the alloc-bit index
// for a small-object block, 0 for a large-object span.
func (s *Space) cellOf(a Addr) int {
	b := &s.blocks[a.block()]
	if b.class < 0 {
		return 0
	}
	return s.cellIndex(b, a)
}

// cellsIn returns the number of cells block bi is carved into.
func (s *Space) cellsIn(bi uint32) int {
	if c := s.blocks[bi].class; c >= 0 {
		return BlockWords / classSizes[c]
	}
	return 1
}

// hasRows reports whether any side table holds a row for block bi.
func (s *Space) hasRows(bi uint32) bool {
	for _, t := range s.tables {
		if t.rows != nil && t.rows[bi] != nil {
			return true
		}
	}
	return false
}

// clearCell zeroes cell c of block bi in every side table. The sweep calls
// it for each cell it frees in a block that has rows.
func (s *Space) clearCell(bi uint32, c int) {
	for _, t := range s.tables {
		if t.rows == nil {
			continue
		}
		if row := t.rows[bi]; row != nil && row[c] != 0 {
			row[c] = 0
			t.n--
		}
	}
}

// dropRows releases every side table's row for block bi. The sweep calls it
// when the block returns to the pool: all its cells are free, so the rows
// are all-zero, and the block may next be carved into a different class.
func (s *Space) dropRows(bi uint32) {
	for _, t := range s.tables {
		if t.rows != nil {
			t.rows[bi] = nil
		}
	}
}
