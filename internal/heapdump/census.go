// Package heapdump is the heap-introspection layer: it takes a per-type
// census at the end of every collection (a walk of the allocation bitmaps
// after the sweep, when every allocated object is a survivor — the heap's
// own record of the live set, so the census needs no hook in the mark
// loop), retains a bounded ring of per-GC snapshots, diffs them into
// Cork-style leak-suspect rankings, and computes dominator trees / retained
// sizes over an on-demand graph capture.
//
// The package answers the question PR 1's telemetry could not: not *when*
// the GC ran, but *what the heap looked like* each time it did.
//
// Concurrency: the census walk runs inside stop-the-world collections on
// the runtime's goroutine; the snapshot ring is mutex-guarded so HTTP
// scrapers may read Snapshots/Latest/Suspects while the workload runs.
// Dominator analysis walks the managed heap and must only run while the
// runtime is quiescent, like heap probes.
package heapdump

import (
	"math/bits"
	"sync"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
	"gcassert/internal/version"
)

// NumSizeBuckets is the number of log2 size-histogram buckets per type.
// Bucket i counts objects whose size in words w satisfies 2^(i-1) < w <= 2^i
// (bucket 0: w <= 1); the last bucket absorbs everything larger, which at
// 2^22 words exceeds any allocatable span.
const NumSizeBuckets = 23

// SizeBucket returns the histogram bucket for an object of the given size in
// words.
func SizeBucket(words int) int {
	if words <= 1 {
		return 0
	}
	b := bits.Len(uint(words - 1))
	if b >= NumSizeBuckets {
		return NumSizeBuckets - 1
	}
	return b
}

// TypeCensus is the live-heap footprint of one type at one collection.
type TypeCensus struct {
	// Type and TypeName identify the type.
	Type     heap.TypeID `json:"type"`
	TypeName string      `json:"type_name"`
	// Objects is the number of instances that survived this cycle.
	Objects uint64 `json:"objects"`
	// Words is their total payload size in heap words (headers included);
	// CellWords the allocator footprint (size-class cells / block spans) —
	// the quantity that reconciles against heap.Stats.LiveWords.
	Words     uint64 `json:"words"`
	CellWords uint64 `json:"cell_words"`
	// SizeHist is the log2 size histogram (see SizeBucket); trailing zero
	// buckets are trimmed.
	SizeHist []uint32 `json:"size_hist,omitempty"`
}

// Bytes returns the payload footprint in bytes.
func (t *TypeCensus) Bytes() uint64 { return t.Words * heap.WordBytes }

// CellBytes returns the allocator footprint in bytes.
func (t *TypeCensus) CellBytes() uint64 { return t.CellWords * heap.WordBytes }

// SiteCensus is the live-heap footprint of one (type, allocation site)
// group. Rows exist only when the heap has provenance enabled; objects
// whose allocation was not sampled (or predates enabling) fall into the
// empty site.
type SiteCensus struct {
	TypeName string `json:"type_name"`
	// Site is the registered allocation-site description ("" = unknown).
	Site    string `json:"site"`
	Objects uint64 `json:"objects"`
	Words   uint64 `json:"words"`
}

// Bytes returns the group's payload footprint in bytes.
func (s *SiteCensus) Bytes() uint64 { return s.Words * heap.WordBytes }

// Snapshot is the per-type census of one collection.
type Snapshot struct {
	// GC is the collector's sequence number for the cycle; Reason its
	// trigger label; UnixNs the census capture time.
	GC     uint64 `json:"gc"`
	Reason string `json:"reason"`
	UnixNs int64  `json:"unix_ns"`
	// TotalObjects / TotalWords / TotalCellWords sum the per-type rows.
	// TotalObjects equals the cycle's ObjectsLive and TotalCellWords equals
	// heap.Stats.LiveWords at the end of the cycle (property-tested).
	TotalObjects   uint64 `json:"total_objects"`
	TotalWords     uint64 `json:"total_words"`
	TotalCellWords uint64 `json:"total_cell_words"`
	// Types holds the non-empty per-type rows, largest payload first.
	Types []TypeCensus `json:"types"`
	// Sites holds the per-(type, site) rows, largest payload first; nil
	// unless allocation-site provenance is enabled.
	Sites []SiteCensus `json:"sites,omitempty"`
}

// ByType returns the row for a type, or nil if the type had no live
// instances in this snapshot.
func (s *Snapshot) ByType(t heap.TypeID) *TypeCensus {
	for i := range s.Types {
		if s.Types[i].Type == t {
			return &s.Types[i]
		}
	}
	return nil
}

// Config configures a Census.
type Config struct {
	// Ring bounds the retained snapshots (default 64).
	Ring int
}

// Census counts the live heap per type at the end of every collection and
// keeps the snapshots in a ring. It implements collector.Observer: GCEnd
// walks the allocation bitmaps after the sweep, so the census is the live
// set by construction — objects the ownership pre-phase marked included,
// which a count taken in the trace would miss (the trace skips them as
// already marked).
type Census struct {
	space *heap.Space

	// Accumulation arrays, indexed by TypeID; touched only inside
	// stop-the-world collections.
	objects   []uint64
	words     []uint64
	cellWords []uint64
	hist      [][NumSizeBuckets]uint32
	// sites accumulates per-(type, site) rows, keyed TypeID<<32 | SiteID.
	// It stays nil unless the space has provenance enabled, so the
	// provenance-off walk pays exactly one nil-check per object here.
	sites map[uint64]*siteTotals

	// onSnapshot, if set, runs after each snapshot is recorded (still inside
	// the collection) — the runtime uses it to publish census gauges.
	onSnapshot func(*Snapshot)

	// identity, when set, stamps exported census documents.
	identity *version.Identity

	mu    sync.Mutex
	ring  []Snapshot // ring[head] is the oldest retained snapshot
	head  int
	count int
	total uint64
}

var _ collector.Observer = (*Census)(nil)

// NewCensus creates a census over the space.
func NewCensus(space *heap.Space, cfg Config) *Census {
	if cfg.Ring <= 0 {
		cfg.Ring = 64
	}
	return &Census{space: space, ring: make([]Snapshot, 0, cfg.Ring)}
}

// SetOnSnapshot installs a callback invoked after every recorded snapshot,
// inside the stop-the-world collection. It must not touch the managed heap.
func (c *Census) SetOnSnapshot(fn func(*Snapshot)) { c.onSnapshot = fn }

// SetIdentity installs the instance identity stamped on exported census
// documents. Install at wiring time.
func (c *Census) SetIdentity(id version.Identity) { c.identity = &id }

// observe accounts one surviving object.
func (c *Census) observe(a heap.Addr) bool {
	t := c.space.TypeOf(a)
	sz := c.space.SizeWords(a)
	c.objects[t]++
	c.words[t] += uint64(sz)
	c.cellWords[t] += uint64(c.space.CellWords(a))
	c.hist[t][SizeBucket(sz)]++
	if c.sites != nil {
		k := uint64(t)<<32 | uint64(c.space.SiteOf(a))
		e := c.sites[k]
		if e == nil {
			e = &siteTotals{}
			c.sites[k] = e
		}
		e.objects++
		e.words += uint64(sz)
	}
	return true
}

// siteTotals is one (type, site) accumulation cell.
type siteTotals struct {
	objects uint64
	words   uint64
}

// grow extends the accumulation arrays to cover every registered type (types
// may be defined between collections, never during one).
func (c *Census) grow() {
	n := c.space.Registry().NumTypes()
	for len(c.objects) < n {
		c.objects = append(c.objects, 0)
		c.words = append(c.words, 0)
		c.cellWords = append(c.cellWords, 0)
		c.hist = append(c.hist, [NumSizeBuckets]uint32{})
	}
}

// GCBegin implements collector.Observer; the census is taken in GCEnd.
func (c *Census) GCBegin(*collector.Collection) {}

// GCEnd implements collector.Observer: count every allocated object — after
// the sweep, exactly the cycle's survivors — and record the snapshot.
func (c *Census) GCEnd(col *collector.Collection) {
	c.grow()
	for i := range c.objects {
		c.objects[i] = 0
		c.words[i] = 0
		c.cellWords[i] = 0
		c.hist[i] = [NumSizeBuckets]uint32{}
	}
	// The site table follows provenance lazily: enabling provenance between
	// collections starts producing site rows at the next census.
	if c.space.Provenance() != nil {
		c.sites = make(map[uint64]*siteTotals)
	} else {
		c.sites = nil
	}
	c.space.ForEachObject(c.observe)
	snap := c.buildSnapshot(col)
	c.mu.Lock()
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, snap)
	} else {
		c.ring[c.head] = snap
		c.head = (c.head + 1) % len(c.ring)
	}
	c.count = len(c.ring)
	c.total++
	c.mu.Unlock()
	if c.onSnapshot != nil {
		c.onSnapshot(&snap)
	}
}

// buildSnapshot renders the accumulation arrays into a Snapshot, rows sorted
// by payload words descending (name ascending on ties) for stable display.
func (c *Census) buildSnapshot(col *collector.Collection) Snapshot {
	reg := c.space.Registry()
	snap := Snapshot{GC: col.Seq, Reason: string(col.Reason), UnixNs: time.Now().UnixNano()}
	for t := range c.objects {
		if c.objects[t] == 0 {
			continue
		}
		row := TypeCensus{
			Type:      heap.TypeID(t),
			TypeName:  reg.Name(heap.TypeID(t)),
			Objects:   c.objects[t],
			Words:     c.words[t],
			CellWords: c.cellWords[t],
		}
		last := -1
		for b := 0; b < NumSizeBuckets; b++ {
			if c.hist[t][b] != 0 {
				last = b
			}
		}
		if last >= 0 {
			row.SizeHist = append([]uint32(nil), c.hist[t][:last+1]...)
		}
		snap.TotalObjects += row.Objects
		snap.TotalWords += row.Words
		snap.TotalCellWords += row.CellWords
		snap.Types = append(snap.Types, row)
	}
	sortRows(snap.Types)
	if prov := c.space.Provenance(); prov != nil && len(c.sites) > 0 {
		snap.Sites = make([]SiteCensus, 0, len(c.sites))
		for k, e := range c.sites {
			snap.Sites = append(snap.Sites, SiteCensus{
				TypeName: reg.Name(heap.TypeID(k >> 32)),
				Site:     prov.Name(heap.SiteID(k)),
				Objects:  e.objects,
				Words:    e.words,
			})
		}
		sortSiteRows(snap.Sites)
	}
	return snap
}

func sortSiteRows(rows []SiteCensus) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && siteRowLess(&rows[j], &rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func siteRowLess(a, b *SiteCensus) bool {
	if a.Words != b.Words {
		return a.Words > b.Words
	}
	if a.TypeName != b.TypeName {
		return a.TypeName < b.TypeName
	}
	return a.Site < b.Site
}

// Snapshots returns the retained snapshots, oldest first.
func (c *Census) Snapshots() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Snapshot, 0, c.count)
	for i := 0; i < c.count; i++ {
		out = append(out, c.ring[(c.head+i)%c.count])
	}
	return out
}

// Last returns the n most recent snapshots, oldest first (n <= 0 or n larger
// than the retained count returns everything).
func (c *Census) Last(n int) []Snapshot {
	all := c.Snapshots()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Latest returns the most recent snapshot and whether one exists.
func (c *Census) Latest() (Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return Snapshot{}, false
	}
	return c.ring[(c.head+c.count-1)%c.count], true
}

// Total returns the number of snapshots ever recorded (retained <= total
// once the ring wraps).
func (c *Census) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func sortRows(rows []TypeCensus) {
	// Insertion sort: row counts are small (number of live types) and this
	// avoids pulling package sort into the per-GC path's closure allocs.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rowLess(&rows[j], &rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func rowLess(a, b *TypeCensus) bool {
	if a.Words != b.Words {
		return a.Words > b.Words
	}
	return a.TypeName < b.TypeName
}
