package heap

// Allocation-site provenance: a side table mapping object addresses to the
// allocation site that created them. A site is registered once per callsite
// (the runtime and guest VMs cache the returned SiteID next to the code),
// and each allocation optionally records its site — exhaustively, or sampled
// 1-in-N to bound the table's footprint on allocation-heavy workloads.
//
// The table is a side structure, not a header field: object headers keep
// their paper-faithful layout (flags + TypeID + length), and a runtime with
// provenance disabled pays exactly one nil-check per allocation. The table
// is a CellTable, whose clear-on-free guarantee means a recycled cell can
// never inherit a previous tenant's site.
//
// Provenance shares the Space's single-goroutine discipline: registration
// and recording happen from mutator context, lookups from violation
// reporting and census accumulation inside stop-the-world collections, and
// heap-walking exports only while the runtime is quiescent.

// SiteID identifies a registered allocation site. The zero SiteID means
// "unknown" — no site was recorded for the object (provenance disabled, the
// allocation was not sampled, or the callsite never registered).
type SiteID uint32

// ProvStats summarizes provenance activity.
type ProvStats struct {
	// Sites is the number of registered allocation sites.
	Sites int
	// Recorded is the number of allocations whose site was recorded;
	// Skipped counts allocations passed over by sampling.
	Recorded uint64
	Skipped  uint64
	// TableEntries is the current number of live address→site entries.
	TableEntries int
	// SampleRate is the configured 1-in-N sampling rate (1 = exhaustive).
	SampleRate int
}

// Provenance is the allocation-site registry and address→site table for one
// Space. Create it with Space.EnableProvenance.
type Provenance struct {
	// names[id] is the site's description; names[0] is the unknown site.
	names []string
	// index dedupes registration by description, so re-registering the same
	// callsite (e.g. a reloaded guest image) returns the existing ID.
	index map[string]SiteID
	// table holds the recorded SiteID of each live sited object.
	table *CellTable
	// allocs[id] counts recorded allocations per site, cumulatively (never
	// decremented on reclamation). The trigger explainer diffs successive
	// snapshots to name the dominant allocating site of an inter-GC window.
	allocs []uint64
	// sample is the 1-in-N sampling rate (1 = record every allocation);
	// tick is the rolling counter driving the sampling decision.
	sample int
	tick   int

	recorded uint64
	skipped  uint64
}

// EnableProvenance creates (or reconfigures) the space's allocation-site
// table. sample is the 1-in-N sampling rate: 1 records every sited
// allocation (exhaustive), N > 1 records every Nth. It returns the table so
// callers can register sites.
func (s *Space) EnableProvenance(sample int) *Provenance {
	if sample < 1 {
		sample = 1
	}
	if s.prov == nil {
		s.prov = &Provenance{
			names:  []string{""},
			index:  make(map[string]SiteID),
			table:  s.NewCellTable(),
			allocs: []uint64{0},
		}
	}
	s.prov.sample = sample
	return s.prov
}

// Provenance returns the space's allocation-site table, or nil when
// provenance is disabled.
func (s *Space) Provenance() *Provenance { return s.prov }

// RecordSite records the allocation site of the object at a, subject to the
// sampling rate. It is a no-op when provenance is disabled or site is the
// unknown site, so unsited allocation paths stay branch-cheap.
func (s *Space) RecordSite(a Addr, site SiteID) {
	p := s.prov
	if p == nil || site == 0 {
		return
	}
	p.tick++
	if p.tick < p.sample {
		p.skipped++
		return
	}
	p.tick = 0
	p.table.Set(a, uint32(site))
	if int(site) < len(p.allocs) {
		p.allocs[site]++
	}
	p.recorded++
}

// SiteOf returns the recorded allocation site of the object at a, or the
// zero SiteID when none was recorded.
func (s *Space) SiteOf(a Addr) SiteID {
	if s.prov == nil {
		return 0
	}
	return SiteID(s.prov.table.Get(a))
}

// SiteDesc returns the description of the allocation site recorded for the
// object at a, or "" when none was recorded.
func (s *Space) SiteDesc(a Addr) string {
	if s.prov == nil {
		return ""
	}
	return s.prov.Name(s.SiteOf(a))
}

// Register assigns (or returns the existing) SiteID for an allocation-site
// description. Descriptions identify sites, so registration is idempotent;
// callers cache the ID next to the callsite and pass it to sited allocation
// entry points.
func (p *Provenance) Register(desc string) SiteID {
	if desc == "" {
		return 0
	}
	if id, ok := p.index[desc]; ok {
		return id
	}
	id := SiteID(len(p.names))
	p.names = append(p.names, desc)
	p.allocs = append(p.allocs, 0)
	p.index[desc] = id
	return id
}

// Name returns the description of a site (the empty string for the unknown
// site or an out-of-range ID).
func (p *Provenance) Name(id SiteID) string {
	if int(id) >= len(p.names) {
		return ""
	}
	return p.names[id]
}

// NumSites returns the number of registered sites (the unknown site is not
// counted).
func (p *Provenance) NumSites() int { return len(p.names) - 1 }

// SiteAllocs copies the cumulative per-site recorded-allocation counters
// into dst (grown if needed; index = SiteID) and returns it. Callers that
// diff successive windows reuse one buffer, so the GC-time explainer path
// allocates nothing once the site set is stable. Sampled provenance
// undercounts uniformly (only recorded allocations are counted).
func (p *Provenance) SiteAllocs(dst []uint64) []uint64 {
	if cap(dst) < len(p.allocs) {
		dst = make([]uint64, len(p.allocs))
	}
	dst = dst[:len(p.allocs)]
	copy(dst, p.allocs)
	return dst
}

// Stats returns a snapshot of provenance activity.
func (p *Provenance) Stats() ProvStats {
	return ProvStats{
		Sites:        p.NumSites(),
		Recorded:     p.recorded,
		Skipped:      p.skipped,
		TableEntries: p.table.Len(),
		SampleRate:   p.sample,
	}
}
