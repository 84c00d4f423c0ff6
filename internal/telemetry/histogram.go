package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPauseBuckets returns the log-spaced bucket upper bounds (in
// seconds) used for GC pause histograms: 1µs doubling up to ~34s.
func DefaultPauseBuckets() []float64 {
	out := make([]float64, 26)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram is a log-bucketed duration histogram with atomic observation
// and lock-free reads: Observe may race freely with quantile queries and
// Prometheus rendering.
type Histogram struct {
	bounds []float64       // ascending upper bounds, in seconds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64

	// Exemplars (OpenMetrics): at most one retained per bucket, newest
	// wins. The observe hot path never touches them — only SetExemplar
	// (called for tail-sampled kept traces, which are rare by design) and
	// the /metrics render take the mutex.
	exMu sync.Mutex
	ex   map[int]Exemplar
}

// Exemplar links one observation in a histogram bucket to the trace that
// produced it, rendered in OpenMetrics exemplar syntax on the bucket line.
type Exemplar struct {
	// Value is the observed value in the histogram's native unit (seconds).
	Value float64
	// TraceID is the 32-hex-digit trace identifier.
	TraceID string
	// UnixNs is the observation's wall-clock time.
	UnixNs int64
}

// NewHistogram creates a histogram over the given ascending upper bounds
// (in seconds). Values above the last bound land in an overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for {
		old := h.maxNs.Load()
		if int64(d) <= old || h.maxNs.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket containing the target rank, the standard estimator for
// log-bucketed histograms. Returns 0 with no observations; the estimate is
// clamped to Max so q=1 is exact.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return h.quantile(h.snapshot(), q)
}

// quantile is Quantile over one snapshot of the bucket counts.
func (h *Histogram) quantile(counts []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.Max().Seconds()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			est := time.Duration((lo + (hi-lo)*frac) * float64(time.Second))
			if m := h.Max(); est > m {
				est = m
			}
			return est
		}
		cum += float64(c)
	}
	return h.Max()
}

// Summary returns the p50/p95/p99 quantile estimates, the operator's
// at-a-glance pause profile. The /metrics render emits it as a comment line
// next to the raw buckets, and cmd/gctrace prints it after the event log.
// All three read one snapshot of the buckets.
func (h *Histogram) Summary() (p50, p95, p99 time.Duration) {
	counts := h.snapshot()
	return h.quantile(counts, 0.50), h.quantile(counts, 0.95), h.quantile(counts, 0.99)
}

// SetExemplar attaches a trace exemplar to the bucket the value falls in,
// replacing that bucket's previous exemplar. Call it only for observations
// whose trace was actually retained, so every exemplar a scraper follows
// resolves to a stored trace.
func (h *Histogram) SetExemplar(value float64, traceID string, unixNs int64) {
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, value)
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make(map[int]Exemplar)
	}
	h.ex[i] = Exemplar{Value: value, TraceID: traceID, UnixNs: unixNs}
	h.exMu.Unlock()
}

// exemplars returns a copy of the per-bucket exemplars (nil when none).
func (h *Histogram) exemplars() map[int]Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.ex) == 0 {
		return nil
	}
	out := make(map[int]Exemplar, len(h.ex))
	for k, v := range h.ex {
		out[k] = v
	}
	return out
}

// snapshot returns the per-bucket counts.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
