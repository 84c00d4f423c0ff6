package trace

import "sync"

// DefaultStoreCap bounds a tenant's retained traces when the tenant
// doesn't choose.
const DefaultStoreCap = 64

// Summary is one stored trace's listing row, cheap enough to return for
// every retained trace.
type Summary struct {
	TraceID       string `json:"trace_id"`
	StartUnixNs   int64  `json:"start_unix_ns"`
	DurNs         int64  `json:"dur_ns"`
	SampledReason string `json:"sampled_reason,omitempty"`
	Requests      int    `json:"requests"`
	GCs           int    `json:"gcs"`
	Violations    int    `json:"violations"`
	GCPauseNs     int64  `json:"gc_pause_ns"`
}

// Store is a bounded in-memory trace store: FIFO by insertion, oldest
// evicted first when the bound is hit. One Store per tenant; safe for
// concurrent use (the drive that keeps a trace puts, other handlers get).
type Store struct {
	mu    sync.Mutex
	cap   int
	docs  map[string]*Document
	order []string // insertion order, oldest first
}

// NewStore creates a store retaining at most cap traces (cap <= 0 uses
// DefaultStoreCap).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = DefaultStoreCap
	}
	return &Store{cap: cap, docs: make(map[string]*Document)}
}

// Cap returns the store's bound.
func (s *Store) Cap() int { return s.cap }

// Put stores a document, evicting the oldest stored trace when full. A
// re-put of an existing trace ID replaces the document in place without
// consuming a slot.
func (s *Store) Put(d *Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.docs[d.TraceID]; dup {
		s.docs[d.TraceID] = d
		return
	}
	for len(s.order) >= s.cap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.docs, oldest)
	}
	s.docs[d.TraceID] = d
	s.order = append(s.order, d.TraceID)
}

// Get returns a stored document by trace ID.
func (s *Store) Get(traceID string) (*Document, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[traceID]
	return d, ok
}

// Len reports the number of stored traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Summaries lists the stored traces, newest first.
func (s *Store) Summaries() []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Summary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		d := s.docs[s.order[i]]
		out = append(out, Summary{
			TraceID:       d.TraceID,
			StartUnixNs:   d.StartUnixNs,
			DurNs:         d.DurNs(),
			SampledReason: d.SampledReason,
			Requests:      d.Requests,
			GCs:           d.GCs,
			Violations:    d.Violations,
			GCPauseNs:     d.GCPauseNs,
		})
	}
	return out
}
