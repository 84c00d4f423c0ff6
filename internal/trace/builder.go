package trace

import (
	"fmt"

	"gcassert/internal/telemetry"
)

// Builder accumulates one driven request batch into a span tree. It is
// deliberately single-goroutine: gcassertd's tenant service loop is the
// only writer (requests run there, and GC events and violations are
// delivered synchronously on the same goroutine from inside the pause), so
// the builder needs no locking — the finished Document is handed off to
// the concurrency-safe Store.
//
// Span parentage for GC collections prefers the runtime's own evidence:
// the collector stamps every collection with the request tag active when
// the pause began (Event.Request), and only events without a usable tag
// fall back to wall-clock window intersection (IntersectPauses). Either
// way each collection becomes a child span of the request it paused, with
// the trailing batch-end collection parented on the root drive span.
type Builder struct {
	traceID      TraceID
	rootSpan     SpanID
	remoteParent SpanID // zero unless the caller sent a traceparent
	tenant       string
	instance     string
	rootName     string
	startNs      int64
	rootAttrs    map[string]any

	reqs    []reqRecord
	gcs     []gcRecord
	pending []SpanEvent // violations awaiting their collection's event

	// NewSpanIDFn overrides span ID generation (tests). Nil uses NewSpanID.
	NewSpanIDFn func() SpanID
}

type reqRecord struct {
	span    SpanID
	startNs int64
	endNs   int64
	errMsg  string
	sloBad  bool
	viols   int
}

type gcRecord struct {
	ev    telemetry.Event
	viols []SpanEvent
}

// NewBuilder starts a trace for one batch. A valid parent context (from
// the incoming traceparent) continues the caller's trace with the root
// span parented under the caller's span; otherwise a fresh trace ID is
// minted. rootName names the root span ("drive").
func NewBuilder(parent SpanContext, tenant, instance, rootName string, startNs int64) *Builder {
	b := &Builder{
		tenant:   tenant,
		instance: instance,
		rootName: rootName,
		startNs:  startNs,
	}
	if parent.IsValid() {
		b.traceID = parent.TraceID
		b.remoteParent = parent.SpanID
	} else {
		b.traceID = NewTraceID()
	}
	b.rootSpan = b.newSpanID()
	return b
}

func (b *Builder) newSpanID() SpanID {
	if b.NewSpanIDFn != nil {
		return b.NewSpanIDFn()
	}
	return NewSpanID()
}

// Context returns the trace position to inject into the HTTP response
// traceparent: this trace, the root span, sampled.
func (b *Builder) Context() SpanContext {
	return SpanContext{TraceID: b.traceID, SpanID: b.rootSpan, Sampled: true}
}

// RootAttr annotates the root span.
func (b *Builder) RootAttr(key string, value any) {
	if b.rootAttrs == nil {
		b.rootAttrs = make(map[string]any)
	}
	b.rootAttrs[key] = value
}

// StartRequest opens the next request's span and returns its ID — the
// caller tags the runtime with it (Runtime.SetRequestTag) so collections
// triggered inside the request carry exact provenance.
func (b *Builder) StartRequest(startNs int64) SpanID {
	id := b.newSpanID()
	b.reqs = append(b.reqs, reqRecord{span: id, startNs: startNs, endNs: startNs})
	return id
}

// EndRequest closes the most recently started request span. violations is
// the number of assertion violations the request's collections tripped;
// sloBad records the SLO engine's at-record-time judgment.
func (b *Builder) EndRequest(endNs int64, errMsg string, sloBad bool, violations int) {
	if len(b.reqs) == 0 {
		return
	}
	r := &b.reqs[len(b.reqs)-1]
	r.endNs = endNs
	r.errMsg = errMsg
	r.sloBad = sloBad
	r.viols = violations
}

// Violation records one assertion violation with its allocation-site
// provenance. Violations are reported during a collection, before that
// collection's telemetry event is recorded, so they are held pending and
// attached to the next GCEvent.
func (b *Builder) Violation(kind, typeName, site, rootDesc, message string, unixNs int64) {
	attrs := map[string]any{"kind": kind}
	if typeName != "" {
		attrs["type"] = typeName
	}
	if site != "" {
		attrs["allocated_at"] = site
	}
	if rootDesc != "" {
		attrs["root"] = rootDesc
	}
	if message != "" {
		attrs["message"] = message
	}
	b.pending = append(b.pending, SpanEvent{
		Name:   "violation:" + kind,
		UnixNs: unixNs,
		Attrs:  attrs,
	})
}

// GCEvent records one completed collection (called from the telemetry
// OnRecord tap, inside the pause, on the service goroutine) and adopts any
// pending violations as its own.
func (b *Builder) GCEvent(ev *telemetry.Event) {
	rec := gcRecord{ev: *ev}
	if len(b.pending) > 0 {
		rec.viols = b.pending
		b.pending = nil
	}
	b.gcs = append(b.gcs, rec)
}

// HasViolations reports whether any collection in the batch tripped an
// assertion.
func (b *Builder) HasViolations() bool {
	if len(b.pending) > 0 {
		return true
	}
	for i := range b.gcs {
		if len(b.gcs[i].viols) > 0 {
			return true
		}
	}
	return false
}

// SLOBad reports whether any request was judged SLO-bad at record time.
func (b *Builder) SLOBad() bool {
	for i := range b.reqs {
		if b.reqs[i].sloBad {
			return true
		}
	}
	return false
}

// MaxPauseNs returns the longest stop-the-world pause in the batch.
func (b *Builder) MaxPauseNs() int64 {
	var max int64
	for i := range b.gcs {
		if b.gcs[i].ev.TotalNs > max {
			max = b.gcs[i].ev.TotalNs
		}
	}
	return max
}

// Finish assembles the span tree and rollup counters. The document's
// SampledReason is left empty; the caller stamps it after the sampling
// decision.
func (b *Builder) Finish(endNs int64) *Document {
	d := &Document{
		SchemaVersion: DocumentSchemaVersion,
		TraceID:       b.traceID.String(),
		Tenant:        b.tenant,
		Instance:      b.instance,
		RootSpanID:    b.rootSpan.String(),
		StartUnixNs:   b.startNs,
		EndUnixNs:     endNs,
		Requests:      len(b.reqs),
		GCs:           len(b.gcs),
	}

	root := Span{
		TraceID:     d.TraceID,
		SpanID:      d.RootSpanID,
		Name:        b.rootName,
		StartUnixNs: b.startNs,
		EndUnixNs:   endNs,
		Attrs:       b.rootAttrs,
	}
	if !b.remoteParent.IsZero() {
		root.Parent = b.remoteParent.String()
	}
	// Violations that never saw a closing event (a guest fault aborting the
	// collection's record) still surface, on the root.
	if len(b.pending) > 0 {
		root.Events = append(root.Events, b.pending...)
	}

	// Pause decomposition: the two-cursor sweep attributes each pause's
	// overlap to the request service windows it straddled. Tag-matched
	// events are parented by runtime evidence; the sweep result still
	// annotates both sides with exact overlap numbers.
	wins := make([]Window, len(b.reqs))
	for i, r := range b.reqs {
		wins[i] = Window{StartNs: r.startNs, EndNs: r.endNs}
	}
	evs := make([]telemetry.Event, len(b.gcs))
	for i := range b.gcs {
		evs[i] = b.gcs[i].ev
	}
	evSvc := make([]int64, len(evs))     // per-event service overlap
	evOwner := make([]int, len(evs))     // window owning the largest share
	evOwnerNs := make([]int64, len(evs)) // that largest share
	reqPause := make([]int64, len(wins)) // per-request absorbed pause
	for i := range evOwner {
		evOwner[i] = -1
	}
	IntersectPauses(evs, wins, func(ei, wi int, o int64) {
		evSvc[ei] += o
		reqPause[wi] += o
		if o > evOwnerNs[ei] {
			evOwnerNs[ei] = o
			evOwner[ei] = wi
		}
	})

	spanIDByReq := make(map[int]string, len(b.reqs))
	reqSpans := make([]Span, 0, len(b.reqs))
	for i, r := range b.reqs {
		id := r.span.String()
		spanIDByReq[i] = id
		attrs := map[string]any{"index": i}
		if r.errMsg != "" {
			attrs["error"] = r.errMsg
		}
		if r.sloBad {
			attrs["slo_bad"] = true
		}
		if r.viols > 0 {
			attrs["violations"] = r.viols
		}
		if reqPause[i] > 0 {
			attrs["gc_pause_ns"] = reqPause[i]
		}
		reqSpans = append(reqSpans, Span{
			TraceID:     d.TraceID,
			SpanID:      id,
			Parent:      d.RootSpanID,
			Name:        "request",
			StartUnixNs: r.startNs,
			EndUnixNs:   r.endNs,
			Attrs:       attrs,
		})
	}

	var gcSpans []Span
	for i := range b.gcs {
		ev := &b.gcs[i].ev
		parent := d.RootSpanID
		if ev.Request != "" {
			// Exact provenance: the collector stamped the active request.
			for ri := range b.reqs {
				if b.reqs[ri].span.String() == ev.Request {
					parent = spanIDByReq[ri]
					break
				}
			}
		} else if evOwner[i] >= 0 {
			parent = spanIDByReq[evOwner[i]]
		}
		id := b.newSpanID().String()
		es, ee := ev.PauseWindow()
		attrs := map[string]any{
			"seq":      ev.Seq,
			"reason":   ev.Reason,
			"total_ns": ev.TotalNs,
			"freed":    ev.ObjectsFreed,
			"live":     ev.ObjectsLive,
		}
		if ev.Trigger != "" {
			attrs["trigger"] = ev.Trigger
			attrs["occupancy_pct"] = ev.OccupancyPct
		}
		if ev.TriggerThread != "" {
			attrs["trigger_thread"] = ev.TriggerThread
		}
		if evSvc[i] > 0 {
			attrs["service_overlap_ns"] = evSvc[i]
		}
		for _, c := range ev.Costs {
			attrs["cost_ns."+c.Kind] = c.Ns
			attrs["cost_checks."+c.Kind] = c.Checks
		}
		gc := Span{
			TraceID:     d.TraceID,
			SpanID:      id,
			Parent:      parent,
			Name:        "gc",
			StartUnixNs: es,
			EndUnixNs:   ee,
			Attrs:       attrs,
			Events:      b.gcs[i].viols,
		}
		d.Violations += len(b.gcs[i].viols)
		d.GCPauseNs += ev.TotalNs
		if ev.TotalNs > d.MaxPauseNs {
			d.MaxPauseNs = ev.TotalNs
		}
		d.ServicePauseNs += evSvc[i]
		gcSpans = append(gcSpans, gc)
		// Phase sub-spans carry the pause's internal decomposition.
		for _, ph := range ev.Phases {
			gcSpans = append(gcSpans, Span{
				TraceID:     d.TraceID,
				SpanID:      b.newSpanID().String(),
				Parent:      id,
				Name:        fmt.Sprintf("gc:%s", ph.Phase),
				StartUnixNs: ph.StartUnixNs,
				EndUnixNs:   ph.StartUnixNs + ph.DurNs,
			})
		}
	}
	d.Violations += len(b.pending)

	d.Spans = make([]Span, 0, 1+len(reqSpans)+len(gcSpans))
	d.Spans = append(d.Spans, root)
	d.Spans = append(d.Spans, reqSpans...)
	d.Spans = append(d.Spans, gcSpans...)
	return d
}
