package assertd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gcassert"
	"gcassert/internal/core"
	"gcassert/internal/minivm"
	"gcassert/internal/slo"
	"gcassert/internal/sse"
	"gcassert/internal/stats"
	"gcassert/internal/telemetry"
	"gcassert/internal/trace"
)

// TenantOptions is the per-tenant runtime configuration accepted on tenant
// creation. Every field is optional; the zero value is a sensible small
// tenant. The server clamps resource fields against its own limits, so a
// tenant can never configure itself past the host's per-tenant budget.
type TenantOptions struct {
	// HeapMiB sizes the tenant's managed heap in MiB (default
	// Config.DefaultHeapMiB, clamped to [1, Config.MaxHeapMiB]).
	HeapMiB int `json:"heap_mib,omitempty"`
	// Provenance selects allocation-site provenance: "", "off", "sampled",
	// or "exhaustive".
	Provenance string `json:"provenance,omitempty"`
	// MaxSteps bounds each guest request's executed instructions. 0 applies
	// the server default (defaultMaxSteps); there is no unlimited setting —
	// a tenant must not be able to hold its guest forever.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// React maps assertion kinds ("assert-dead", "dead", ...) to reactions
	// ("log", "halt", "force"). Unlisted kinds log.
	React map[string]string `json:"react,omitempty"`
	// FlightRecorder enables the GC flight recorder.
	FlightRecorder bool `json:"flight_recorder,omitempty"`
	// Introspection enables the census/leak-ranking layer. Forced on when
	// the server has a fleet collector configured (census is what ships).
	Introspection bool `json:"introspection,omitempty"`
	// SLO declares the tenant's service-level objectives at creation time
	// (replaceable later via PUT /tenants/{id}/slo). Nil means no SLO: the
	// record seams reduce to one nil check and allocate nothing.
	SLO *slo.Spec `json:"slo,omitempty"`
	// Trace enables request-to-GC tracing with tail-based sampling. Nil
	// means tracing off: the drive path pays one atomic load per batch and
	// one nil check per request, and allocates nothing.
	Trace *TraceOptions `json:"trace,omitempty"`
}

// defaultMaxSteps bounds a guest request when the tenant does not choose a
// bound. Isolation requires some bound: the guest is the tenant's only
// execution resource, and an infinite guest loop would otherwise hold it
// forever.
const defaultMaxSteps = 50_000_000

// parseReaction maps the wire spelling of a reaction.
func parseReaction(s string) (gcassert.Reaction, error) {
	switch s {
	case "log":
		return gcassert.ReactLog, nil
	case "halt":
		return gcassert.ReactHalt, nil
	case "force":
		return gcassert.ReactForce, nil
	}
	return gcassert.ReactLog, fmt.Errorf("unknown reaction %q (want log, halt or force)", s)
}

// parseKind maps the wire spelling of an assertion kind, accepting both the
// stable label ("assert-dead") and its short form ("dead").
func parseKind(s string) (gcassert.Kind, error) {
	for k := gcassert.Kind(0); k < core.NumKinds; k++ {
		label := k.String()
		if s == label || "assert-"+s == label || (k == core.KindImproperOwnership && s == "improper-ownership") {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown assertion kind %q", s)
}

// policy builds the per-kind reaction policy from the wire map.
func (o TenantOptions) policy() (gcassert.Policy, error) {
	var p gcassert.Policy
	for ks, rs := range o.React {
		k, err := parseKind(ks)
		if err != nil {
			return p, err
		}
		r, err := parseReaction(rs)
		if err != nil {
			return p, err
		}
		p[k] = r
	}
	return p, nil
}

// Errors the HTTP layer maps onto status codes.
var (
	// ErrBadProgram wraps guest program compile/load failures (HTTP 400).
	ErrBadProgram = errors.New("bad program")
	// ErrNoProgram reports a drive against a tenant with no program (409).
	ErrNoProgram = errors.New("no program submitted")
	// errTenantGone reports a command raced with tenant deletion (404).
	errTenantGone = errors.New("tenant deleted")
)

// Tenant is one isolated guest runtime hosted by a Server. The runtime is
// reachable only through the tenant's guest, a token that one goroutine at
// a time holds: a handler takes it, runs its command on its own goroutine,
// and puts it back. The runtime's single-goroutine discipline is thus the
// isolation boundary, enforced by the type. Concurrent requests against one
// tenant serialize in arrival order, and the queueing they experience is
// exactly the per-tenant service latency the load driver measures.
type Tenant struct {
	id      string
	opts    TenantOptions
	created time.Time
	srv     *Server
	clock   func() time.Time

	// sloT is the tenant's SLO tracker; nil when no SLO is configured, so
	// the record seams cost one atomic load on the off path. Swapped whole
	// on PUT/DELETE of the SLO (the tracker itself is concurrency-safe).
	sloT atomic.Pointer[slo.Tracker]

	// trc is the tenant's tracing state (store + tail sampler); nil when the
	// tenant was created without a trace config, so the drive-path seam is
	// one atomic load. Set once at creation, never swapped.
	trc atomic.Pointer[tenantTracer]
	// activeTrace is the span builder for the traced drive batch currently
	// executing, nil between batches. Guest holder only — the GC event and
	// violation taps read it inside the stop-the-world window, which runs on
	// the holder's goroutine.
	activeTrace *trace.Builder

	// idle holds the tenant's guest while no goroutine runs it (capacity 1).
	// acquire takes it, release puts it back, shutdown takes it for good.
	idle chan *guest
	done chan struct{} // closed once shutdown has taken the guest

	shutdownOnce sync.Once

	tel *telemetry.Tracer // concurrency-safe views (pause histogram, SSE)
	hub sse.Hub           // violation SSE stream

	// Cross-goroutine counters (written by the guest holder, read anywhere).
	requests   atomic.Uint64
	failures   atomic.Uint64
	violations atomic.Uint64
	violSeq    atomic.Uint64

	// Guest-holder-only state (no locking: one holder at a time, and the
	// guest channel orders one holder's writes before the next's reads).
	latency    stats.LogHist
	violByKind [core.NumKinds]uint64
	costNs     [core.NumKinds]int64
	costChecks [core.NumKinds]uint64

	mu   sync.Mutex
	snap TenantStats // cached; refreshed by release after every command

	metrics tenantMetrics
}

// tenantMetrics are the tenant's label-bound series in the server registry.
type tenantMetrics struct {
	requests         *telemetry.Counter
	failures         *telemetry.Counter
	viols            *telemetry.Counter
	dropped          *telemetry.Counter
	latency          *telemetry.Histogram
	liveWords        *telemetry.Gauge
	collections      *telemetry.Gauge
	pauseP99Ns       *telemetry.Gauge
	alertTransitions *telemetry.Counter
}

// guest is the tenant's execution state: the runtime plus the currently
// loaded program image. Only the goroutine that holds it (acquire, release)
// may use it.
type guest struct {
	vm *gcassert.Runtime
	im *minivm.Image
}

// newTenant builds the runtime and parks its guest, ready for the first
// acquire.
func newTenant(s *Server, id string, topts TenantOptions) (*Tenant, error) {
	pol, err := topts.policy()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	switch topts.Provenance {
	case "", "off", "sampled", "exhaustive":
	default:
		return nil, fmt.Errorf("%w: unknown provenance mode %q", ErrBadProgram, topts.Provenance)
	}
	// Clamp resources to the host's per-tenant budget.
	if topts.HeapMiB <= 0 {
		topts.HeapMiB = s.cfg.DefaultHeapMiB
	}
	if topts.HeapMiB > s.cfg.MaxHeapMiB {
		topts.HeapMiB = s.cfg.MaxHeapMiB
	}
	if topts.HeapMiB < 1 {
		topts.HeapMiB = 1
	}
	if topts.MaxSteps == 0 || topts.MaxSteps > defaultMaxSteps {
		topts.MaxSteps = defaultMaxSteps
	}
	if s.cfg.FleetURL != "" {
		topts.Introspection = true // census is the fleet payload
	}
	if topts.SLO != nil {
		if err := topts.SLO.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSLO, err)
		}
	}
	if topts.Trace != nil {
		if err := topts.Trace.validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
		}
	}

	t := &Tenant{
		id:      id,
		opts:    topts,
		created: s.cfg.Clock(),
		srv:     s,
		clock:   s.cfg.Clock,
		idle:    make(chan *guest, 1),
		done:    make(chan struct{}),
	}
	if topts.SLO != nil {
		tr, err := slo.New(*topts.SLO, t.clock)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSLO, err)
		}
		t.sloT.Store(tr)
	}
	if topts.Trace != nil {
		t.trc.Store(newTenantTracer(topts.Trace, id, s.cfg.InstanceID))
	}
	lbl := telemetry.Label{Name: "tenant", Value: id}
	t.metrics = tenantMetrics{
		requests:         s.reg.Counter("gcassertd_requests_total", "Guest requests run, by tenant.", lbl),
		failures:         s.reg.Counter("gcassertd_request_failures_total", "Guest requests that failed (VM error, OOM, halt), by tenant.", lbl),
		viols:            s.reg.Counter("gcassertd_violations_total", "Assertion violations reported, by tenant.", lbl),
		dropped:          s.reg.Counter("gcassertd_stream_dropped_frames_total", "Violation-stream frames dropped on slow subscribers, by tenant.", lbl),
		latency:          s.reg.Histogram("gcassertd_request_seconds", "Guest request service time, by tenant.", telemetry.DefaultPauseBuckets(), lbl),
		liveWords:        s.reg.Gauge("gcassertd_heap_live_words", "Live heap words after the last command, by tenant.", lbl),
		collections:      s.reg.Gauge("gcassertd_gc_collections", "Completed collections, by tenant.", lbl),
		pauseP99Ns:       s.reg.Gauge("gcassertd_gc_pause_p99_ns", "p99 GC pause in nanoseconds, by tenant.", lbl),
		alertTransitions: s.reg.Counter("gcassertd_slo_alert_transitions_total", "SLO alert state transitions published, by tenant.", lbl),
	}
	t.hub.DropMetric = t.metrics.dropped

	vm := gcassert.New(gcassert.Options{
		HeapBytes:       topts.HeapMiB << 20,
		Infrastructure:  true,
		Reporter:        core.FuncReporter(t.onViolation),
		Policy:          pol,
		Telemetry:       true,
		CostAttribution: true,
		Provenance:      topts.Provenance,
		FlightRecorder:  topts.FlightRecorder,
		Introspection:   topts.Introspection,
		InstanceID:      s.cfg.InstanceID,
		Tenant:          id,
		FleetURL:        s.cfg.FleetURL,
	})
	t.tel = vm.Telemetry()
	t.tel.OnRecord(t.onGCEvent)

	// release snapshots before parking the guest, so the create response
	// already carries a populated stats document.
	t.release(&guest{vm: vm})
	return t, nil
}

// acquire takes the tenant's guest, waiting while another goroutine holds
// it. Waiters are served in arrival order (a channel's receivers queue
// FIFO). A tenant being deleted answers errTenantGone instead, so a
// handler racing a DELETE never hangs.
func (t *Tenant) acquire() (*guest, error) {
	select {
	case g := <-t.idle:
		return g, nil
	case <-t.done:
		return nil, errTenantGone
	}
}

// release refreshes the cached stats snapshot and puts the guest back.
// Only the holder sends, into a channel of capacity one, so it never
// blocks.
func (t *Tenant) release(g *guest) {
	t.refreshSnapshot(g)
	t.idle <- g
}

// do runs fn holding the guest. A guest that OOMs its heap or halts on a
// violation (ReactHalt) inside fn unwinds to here and becomes fn's error;
// the tenant — and every other tenant — keeps serving.
func (t *Tenant) do(fn func(*guest) error) (err error) {
	g, err := t.acquire()
	if err != nil {
		return err
	}
	defer t.release(g)
	defer recoverGuest(&err)
	return fn(g)
}

// recoverGuest, deferred, turns a recovered guest panic into *err.
func recoverGuest(err *error) {
	if r := recover(); r != nil {
		*err = guestError(r)
	}
}

// guestError converts a recovered guest panic into an error.
func guestError(r any) error {
	switch e := r.(type) {
	case *gcassert.HaltError:
		return fmt.Errorf("assertion halt: %v", e)
	case error:
		return fmt.Errorf("guest fault: %w", e)
	default:
		return fmt.Errorf("guest panic: %v", r)
	}
}

// shutdown takes the guest for good — waiting out a running command — and
// closes the violation hub (so SSE handlers return) and the fleet exporter
// before signalling done, which turns away every acquire still waiting.
func (t *Tenant) shutdown() {
	t.shutdownOnce.Do(func() {
		g := <-t.idle
		t.hub.Close()
		g.vm.CloseFleet()
		close(t.done)
	})
}

// ID returns the tenant's name.
func (t *Tenant) ID() string { return t.id }

// onViolation is the tenant's reporter. It runs on the guest holder's
// goroutine inside the stop-the-world collection, so it must stay brief and
// must never block: count, marshal once, publish non-blocking.
func (t *Tenant) onViolation(v *gcassert.Violation) {
	seq := t.violSeq.Add(1)
	t.violations.Add(1)
	t.metrics.viols.Inc()
	if int(v.Kind) < len(t.violByKind) {
		t.violByKind[v.Kind]++
	}
	frame := ViolationFrame{
		Tenant:   t.id,
		Seq:      seq,
		Kind:     v.Kind.String(),
		GC:       v.GC,
		TypeName: v.TypeName,
		Site:     v.Site,
		Root:     v.Root,
		Message:  v.Message,
		UnixNs:   t.clock().UnixNano(),
	}
	for _, step := range v.Path {
		s := step.TypeName
		if step.Field != "" {
			s += "." + step.Field
		}
		frame.Path = append(frame.Path, s)
	}
	if b, err := json.Marshal(&frame); err == nil {
		t.hub.Publish(b)
	}
	t.traceTapViolation(v)
}

// ViolationFrame is one violation as streamed on the tenant's SSE feed.
type ViolationFrame struct {
	Tenant   string   `json:"tenant"`
	Seq      uint64   `json:"seq"`
	Kind     string   `json:"kind"`
	GC       uint64   `json:"gc"`
	TypeName string   `json:"type"`
	Site     string   `json:"site,omitempty"`
	Root     string   `json:"root,omitempty"`
	Path     []string `json:"path,omitempty"`
	Message  string   `json:"message,omitempty"`
	UnixNs   int64    `json:"unix_ns"`
}

// onGCEvent accumulates per-kind assertion cost from each collection's
// event and feeds the SLO pause/cost objectives. Runs on the guest holder's
// goroutine during the stop-the-world window.
func (t *Tenant) onGCEvent(ev *telemetry.Event) {
	var assertNs int64
	for _, c := range ev.Costs {
		assertNs += c.Ns
		for k := gcassert.Kind(0); k < core.NumKinds; k++ {
			if k.String() == c.Kind {
				t.costChecks[k] += c.Checks
				t.costNs[k] += c.Ns
				break
			}
		}
	}
	t.sloRecordPause(ev.TotalNs, assertNs)
	t.traceTapEvent(ev)
}

// AssertCostStat is one kind's cumulative attributed GC-time cost.
type AssertCostStat struct {
	Kind   string `json:"kind"`
	Checks uint64 `json:"checks"`
	Ns     int64  `json:"ns"`
}

// LatencyNs is a latency tail summary in nanoseconds.
type LatencyNs struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
	Max   int64  `json:"max_ns"`
}

// TenantStats is the per-tenant stats document served on /tenants/{id} and
// folded into /tenants. It is a cached snapshot refreshed by the guest
// holder after every command — the collector and heap stats it summarizes
// are not concurrency-safe, so handlers never read the runtime directly.
type TenantStats struct {
	ID            string        `json:"id"`
	InstanceID    string        `json:"instance_id"`
	CreatedUnixNs int64         `json:"created_unix_ns"`
	Options       TenantOptions `json:"options"`
	Program       bool          `json:"program"`

	Requests   uint64 `json:"requests"`
	Failures   uint64 `json:"failures"`
	Violations uint64 `json:"violations"`

	ViolationsByKind map[string]uint64 `json:"violations_by_kind,omitempty"`
	AssertCosts      []AssertCostStat  `json:"assert_costs,omitempty"`

	Latency LatencyNs `json:"latency"`

	HeapLiveObjects uint64 `json:"heap_live_objects"`
	HeapLiveWords   uint64 `json:"heap_live_words"`
	Collections     uint64 `json:"collections"`
	GCTotalNs       int64  `json:"gc_total_ns"`
	PauseP50Ns      int64  `json:"gc_pause_p50_ns"`
	PauseP99Ns      int64  `json:"gc_pause_p99_ns"`
	MaxPauseNs      int64  `json:"gc_pause_max_ns"`

	StreamDropped uint64 `json:"stream_dropped_frames"`

	// TracesStored counts traces currently retained by the tail sampler
	// (only present when the tenant has tracing enabled).
	TracesStored int `json:"traces_stored,omitempty"`

	// SLO is the tenant's SLO status as of the last snapshot refresh; nil
	// when no SLO is configured. GET /tenants/{id}/slo serves a fresh
	// evaluation instead of this cached one.
	SLO *slo.Status `json:"slo,omitempty"`
}

// refreshSnapshot rebuilds the cached stats document. Guest holder only.
func (t *Tenant) refreshSnapshot(g *guest) {
	gc := g.vm.GCStats()
	hs := g.vm.HeapStats()
	p50, _, p99 := t.tel.PauseHistogram().Summary()
	lp50, lp99, lp999, lmax := t.latency.Tail()

	s := TenantStats{
		ID:            t.id,
		InstanceID:    g.vm.Identity().InstanceID,
		CreatedUnixNs: t.created.UnixNano(),
		Options:       t.opts,
		Program:       g.im != nil,
		Requests:      t.requests.Load(),
		Failures:      t.failures.Load(),
		Violations:    t.violations.Load(),
		Latency: LatencyNs{
			Count: t.latency.Count(),
			P50:   lp50.Nanoseconds(),
			P99:   lp99.Nanoseconds(),
			P999:  lp999.Nanoseconds(),
			Max:   lmax.Nanoseconds(),
		},
		HeapLiveObjects: hs.LiveObjects,
		HeapLiveWords:   hs.LiveWords,
		Collections:     gc.Collections,
		GCTotalNs:       gc.TotalGCTime.Nanoseconds(),
		PauseP50Ns:      p50.Nanoseconds(),
		PauseP99Ns:      p99.Nanoseconds(),
		MaxPauseNs:      gc.MaxPause.Nanoseconds(),
		StreamDropped:   t.hub.Dropped(),
	}
	for k := gcassert.Kind(0); k < core.NumKinds; k++ {
		if n := t.violByKind[k]; n > 0 {
			if s.ViolationsByKind == nil {
				s.ViolationsByKind = make(map[string]uint64)
			}
			s.ViolationsByKind[k.String()] = n
		}
		if t.costChecks[k] > 0 || t.costNs[k] > 0 {
			if s.AssertCosts == nil {
				s.AssertCosts = make([]AssertCostStat, 0, core.NumKinds)
			}
			s.AssertCosts = append(s.AssertCosts, AssertCostStat{
				Kind: k.String(), Checks: t.costChecks[k], Ns: t.costNs[k],
			})
		}
	}
	t.metrics.liveWords.Set(int64(hs.LiveWords))
	t.metrics.collections.Set(int64(gc.Collections))
	t.metrics.pauseP99Ns.Set(p99.Nanoseconds())

	if tr := t.sloT.Load(); tr != nil {
		st, evs := tr.Status()
		t.publishAlerts(evs)
		t.updateSLOMetrics(&st)
		s.SLO = &st
	}
	if tr := t.trc.Load(); tr != nil {
		s.TracesStored = tr.store.Len()
	}

	t.mu.Lock()
	t.snap = s
	t.mu.Unlock()
}

// Stats returns the cached stats snapshot. Safe from any goroutine.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snap
}

// ProgramInfo reports a successfully submitted program.
type ProgramInfo struct {
	Classes int `json:"classes"`
	Methods int `json:"methods"`
}

// Submit compiles src and loads it into the tenant's runtime, replacing the
// current program. Compile and load failures wrap ErrBadProgram. A replaced
// program's classes stay registered as heap types; resubmitting a program
// whose class shapes conflict with an earlier submission is a load error.
func (t *Tenant) Submit(src string) (ProgramInfo, error) {
	var info ProgramInfo
	err := t.do(func(g *guest) error {
		unit, err := minivm.Compile(src)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadProgram, err)
		}
		im, err := minivm.Load(g.vm, unit, io.Discard)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadProgram, err)
		}
		im.MaxSteps = t.opts.MaxSteps
		g.im = im
		info = ProgramInfo{Classes: len(unit.Classes), Methods: len(unit.Methods)}
		return nil
	})
	return info, err
}

// DriveResult reports one drive batch: how many guest requests ran, how
// many failed, and how many assertion violations the batch produced
// (including any from the optional trailing forced collection).
type DriveResult struct {
	Requests   int    `json:"requests"`
	Failures   uint64 `json:"failures"`
	Violations uint64 `json:"violations"`
	ElapsedNs  int64  `json:"elapsed_ns"`
	LastError  string `json:"last_error,omitempty"`

	// TraceID and Traceparent identify the batch's trace when the tenant has
	// tracing enabled (Traceparent is the W3C header value naming the trace
	// root span, also echoed as a response header by the HTTP layer).
	// TraceSampled is the tail sampler's keep reason ("violation", "slo-bad",
	// "slow-pause", "probability"); empty means the trace was dropped and
	// TraceID will not resolve against the store.
	TraceID      string `json:"trace_id,omitempty"`
	Traceparent  string `json:"traceparent,omitempty"`
	TraceSampled string `json:"trace_sampled,omitempty"`
}

// Drive runs n guest requests back to back on the calling goroutine once it
// holds the tenant's guest, optionally forcing a collection afterwards (so
// end-of-request assert-dead style assertions are checked even when the
// batch didn't fill the heap).
func (t *Tenant) Drive(n int, collect bool) (DriveResult, error) {
	return t.DriveTraced(n, collect, trace.SpanContext{})
}

// DriveTraced is Drive carrying a remote trace parent (from an incoming
// traceparent header; the zero SpanContext starts a fresh trace). When the
// tenant has tracing enabled, each request becomes a child span, the
// runtime's request tag is set around its execution so collections are
// stamped with the request they interrupted, and the finished span tree
// goes through the tail sampler. With tracing off the parent is ignored.
func (t *Tenant) DriveTraced(n int, collect bool, parent trace.SpanContext) (res DriveResult, err error) {
	g, err := t.acquire()
	if err != nil {
		return res, err
	}
	defer t.release(g)
	defer recoverGuest(&err)
	if g.im == nil {
		return res, ErrNoProgram
	}
	return t.drive(g, n, collect, parent), nil
}

// drive is DriveTraced's batch, run by the guest's holder.
func (t *Tenant) drive(g *guest, n int, collect bool, parent trace.SpanContext) DriveResult {
	res := DriveResult{Requests: n}
	v0 := t.violations.Load()
	start := time.Now()
	tb := t.traceBegin(parent, n, collect)
	if tb != nil {
		// A guest panic escaping the batch must not leave a stale builder
		// installed for the next command's collections.
		defer func() { t.activeTrace = nil }()
	}
	for i := 0; i < n; i++ {
		// Per-request SLO accounting: only touch the violation counter when
		// a tracker or tracer is live, so the off path stays one nil check.
		sloOn := t.sloT.Load() != nil
		var pv uint64
		if sloOn || tb != nil {
			pv = t.violations.Load()
		}
		g.im.ResetSteps() // per-request step budget
		t0 := time.Now()
		if tb != nil {
			span := tb.StartRequest(t0.UnixNano())
			g.vm.SetRequestTag(binary.BigEndian.Uint64(span[:]))
		}
		err := g.runOne()
		d := time.Since(t0)
		t.latency.Observe(d)
		t.metrics.latency.Observe(d)
		t.requests.Add(1)
		t.metrics.requests.Inc()
		var fail uint64
		if err != nil {
			t.failures.Add(1)
			t.metrics.failures.Inc()
			res.Failures++
			res.LastError = err.Error()
			fail = 1
		}
		// The SLO fold judges the batch bad at record time; the tail sampler
		// consumes that verdict per request span.
		bad := false
		if sloOn {
			bad = t.sloRecordRequests(1, fail, t.violations.Load()-pv)
		}
		if tb != nil {
			g.vm.SetRequestTag(0)
			emsg := ""
			if err != nil {
				emsg = res.LastError
			}
			tb.EndRequest(t0.UnixNano()+d.Nanoseconds(), emsg, bad, int(t.violations.Load()-pv))
		}
	}
	if collect {
		vc := t.violations.Load()
		if err := g.collectOne(); err != nil {
			res.Failures++
			res.LastError = err.Error()
		}
		// Violations from the trailing forced collection still spend the
		// violation budget, attributed to no particular request.
		if d := t.violations.Load() - vc; d > 0 {
			t.sloRecordRequests(0, 0, d)
		}
	}
	res.Violations = t.violations.Load() - v0
	res.ElapsedNs = time.Since(start).Nanoseconds()
	if tb != nil {
		t.traceFinish(tb, &res)
	}
	return res
}

// Collect forces one collection on the calling goroutine.
func (t *Tenant) Collect() error {
	return t.do((*guest).collectOne)
}

// runOne executes one guest request with per-request panic isolation: a
// heap OOM or a ReactHalt violation fails this request, not the tenant.
func (g *guest) runOne() (err error) {
	defer recoverGuest(&err)
	return g.im.Run()
}

// collectOne forces a collection with the same isolation (ReactHalt
// violations surface as errors).
func (g *guest) collectOne() (err error) {
	defer recoverGuest(&err)
	g.vm.Collect()
	return nil
}

// SubscribeViolations subscribes to the tenant's violation stream. ok is
// false when the tenant is already deleted.
func (t *Tenant) SubscribeViolations(buf int) (frames <-chan []byte, cancel func(), ok bool) {
	return t.hub.Subscribe(buf)
}

// SubscribeEvents subscribes to the tenant's live GC event feed (the
// telemetry tracer's own hub — concurrency-safe, same drop policy).
func (t *Tenant) SubscribeEvents(buf int) (<-chan []byte, func()) {
	return t.tel.SubscribeLive(buf)
}

// Events returns the tenant's retained GC event trace.
func (t *Tenant) Events() []telemetry.Event { return t.tel.Events() }
