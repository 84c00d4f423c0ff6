package heap

// prefetch asks the CPU to bring the cache line holding *p into every level
// of the cache (PREFETCHT0). It is a hint: it never faults and never blocks.
//
//go:noescape
func prefetch(p *uint64)
