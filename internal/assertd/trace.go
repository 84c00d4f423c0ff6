package assertd

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"gcassert"
	"gcassert/internal/fleet"
	"gcassert/internal/telemetry"
	"gcassert/internal/trace"
)

// ErrNoTracing reports a trace query against a tenant created without a
// trace config (HTTP 404: /tenants/{id}/traces does not exist).
var ErrNoTracing = errors.New("tracing not enabled")

// ErrNoTrace reports a lookup of a trace ID the tenant's store does not
// hold — the trace was dropped by the tail sampler, or evicted (HTTP 404).
var ErrNoTrace = errors.New("no such trace")

// TraceOptions is a tenant's request-to-GC tracing configuration, accepted
// on tenant creation. A nil TraceOptions means tracing off: the drive path
// then pays one atomic load per batch and one nil check per request, and
// allocates nothing (BenchmarkLayersOff/Tracing pins this).
type TraceOptions struct {
	// Capacity bounds the tenant's stored traces; the store evicts oldest
	// first. 0 applies trace.DefaultStoreCap; larger values are clamped to
	// maxTraceCapacity, and the tenant document echoes the clamped value.
	Capacity int `json:"capacity,omitempty"`
	// SlowPauseNs always keeps any trace containing a collection whose
	// stop-the-world pause reaches this many nanoseconds. 0 disables the
	// criterion. Violations and SLO-bad requests are always kept regardless.
	SlowPauseNs int64 `json:"slow_pause_ns,omitempty"`
	// Probability in [0, 1] keeps that fraction of the traces matching no
	// always-keep criterion (the healthy, fast, quiet ones).
	Probability float64 `json:"probability,omitempty"`
}

// maxTraceCapacity caps TraceOptions.Capacity, so one tenant cannot make
// the host retain an unbounded number of span trees.
const maxTraceCapacity = 1024

func (o *TraceOptions) validate() error {
	if o.Capacity < 0 {
		return fmt.Errorf("trace capacity must be non-negative (got %d)", o.Capacity)
	}
	if o.SlowPauseNs < 0 {
		return fmt.Errorf("trace slow_pause_ns must be non-negative (got %d)", o.SlowPauseNs)
	}
	if o.Probability < 0 || o.Probability > 1 {
		return fmt.Errorf("trace probability must be in [0, 1] (got %g)", o.Probability)
	}
	return nil
}

// tenantTracer is the tenant's tracing state: the bounded trace store, the
// tail sampler and the span builder every traced batch reuses. Held behind
// an atomic pointer (nil = off) exactly like the SLO tracker, so the
// hot-path seam is one load.
type tenantTracer struct {
	store   *trace.Store
	sampler trace.Sampler
	builder *trace.Builder // guest holder only
}

func newTenantTracer(o *TraceOptions, tenant, instance string) *tenantTracer {
	return &tenantTracer{
		store:   trace.NewStore(o.Capacity),
		sampler: trace.Sampler{SlowPauseNs: o.SlowPauseNs, Probability: o.Probability},
		builder: trace.NewBuilder(tenant, instance, "drive"),
	}
}

// traceBegin is the batch-path tracing seam: nil (one atomic load, zero
// allocations) when the tenant has no trace config, otherwise the tenant's
// span builder reset for the batch and installed as the active trace so
// the GC event and violation taps feed it. Guest holder only.
func (t *Tenant) traceBegin(parent trace.SpanContext, n int, collect bool) *trace.Builder {
	tr := t.trc.Load()
	if tr == nil {
		return nil
	}
	tr.builder.Reset(parent, time.Now().UnixNano(), n, collect)
	t.activeTrace = tr.builder
	return tr.builder
}

// traceTapEvent feeds a collection's telemetry event to the active trace,
// if any. Called from onGCEvent on the guest holder's goroutine inside the
// stop-the-world window — one nil check when no traced batch is running.
func (t *Tenant) traceTapEvent(ev *telemetry.Event) {
	if b := t.activeTrace; b != nil {
		b.GCEvent(ev)
	}
}

// traceTapViolation feeds a violation report to the active trace, if any.
// Same discipline as traceTapEvent: guest holder, inside the pause, one nil
// check when off.
func (t *Tenant) traceTapViolation(v *gcassert.Violation) {
	if b := t.activeTrace; b != nil {
		b.Violation(v.Kind.String(), v.TypeName, v.Site, v.Root, v.Message, t.clock().UnixNano())
	}
}

// traceFinish closes out a traced batch: make the tail-sampling keep/drop
// decision from the builder's counters, and only for a kept trace assemble
// the span tree, store the document, attach latency exemplars, and ship a
// sealed envelope to the fleet collector. A dropped trace costs the reply's
// traceparent string and nothing else. Guest holder only.
func (t *Tenant) traceFinish(b *trace.Builder, res *DriveResult) {
	t.activeTrace = nil
	tr := t.trc.Load()
	if tr == nil || b == nil {
		return
	}
	res.Traceparent = b.Context().Traceparent()
	res.TraceID = res.Traceparent[3:35]
	keep, reason := tr.sampler.Keep(b.HasViolations(), b.SLOBad(), b.MaxPauseNs())
	if !keep {
		return
	}
	doc := b.Finish(time.Now().UnixNano())
	doc.SampledReason = reason
	tr.store.Put(doc)
	res.TraceSampled = reason

	// Exemplars: every scrape-visible latency bucket this batch touched now
	// points at a trace that is actually stored, so following an exemplar
	// from /metrics always resolves on /tenants/{id}/traces/{traceID}.
	for i := range doc.Spans {
		sp := &doc.Spans[i]
		if sp.Name != "request" {
			continue
		}
		t.metrics.latency.SetExemplar(float64(sp.DurNs())/1e9, res.TraceID, sp.EndUnixNs)
	}

	if t.srv.sloShip != nil {
		if payload, err := json.Marshal(doc); err == nil {
			t.srv.sloShip.shipEnvelope(fleet.KindTrace, fleet.TraceRegistryRef, t.id, payload)
		}
	}
}

// Traces returns summaries of the tenant's stored traces, newest first.
// Safe from any goroutine (the store is internally locked).
func (t *Tenant) Traces() ([]trace.Summary, error) {
	tr := t.trc.Load()
	if tr == nil {
		return nil, fmt.Errorf("%w (tenant %s)", ErrNoTracing, t.id)
	}
	return tr.store.Summaries(), nil
}

// TraceByID returns one stored trace document. Safe from any goroutine.
func (t *Tenant) TraceByID(id string) (*trace.Document, error) {
	tr := t.trc.Load()
	if tr == nil {
		return nil, fmt.Errorf("%w (tenant %s)", ErrNoTracing, t.id)
	}
	doc, ok := tr.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s (dropped by the tail sampler, or evicted)", ErrNoTrace, id)
	}
	return doc, nil
}
