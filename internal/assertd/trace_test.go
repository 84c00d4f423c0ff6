package assertd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gcassert/internal/assertd"
	"gcassert/internal/trace"
)

// driveTraced is drive with an optional incoming traceparent header; it
// returns the response headers so tests can check context propagation.
func driveTraced(t *testing.T, ts *httptest.Server, id string, n int, collect bool, traceparent string) (assertd.DriveResult, http.Header) {
	t.Helper()
	body, err := json.Marshal(assertd.DriveRequest{Requests: n, Collect: collect})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/tenants/"+id+"/drive", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(trace.Header, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced drive = %d: %s", resp.StatusCode, raw)
	}
	var res assertd.DriveResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return res, resp.Header
}

func getTrace(t *testing.T, ts *httptest.Server, tenant, traceID string) *trace.Document {
	t.Helper()
	var doc trace.Document
	doJSON(t, "GET", ts.URL+"/tenants/"+tenant+"/traces/"+traceID, nil, http.StatusOK, &doc)
	return &doc
}

// TestTracedDriveEndToEnd is the tentpole acceptance flow: a violating
// request batch driven with an upstream traceparent yields a stored trace
// that continues the caller's trace, whose GC collections are child spans
// of the requests they paused, annotated with trigger reason, per-kind
// assertion cost, and violation provenance — and whose pause rollup
// reconciles with the tenant's GC accounting.
func TestTracedDriveEndToEnd(t *testing.T) {
	const upstream = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

	s, ts := testServer(t, assertd.Config{InstanceID: "trace-host"})
	createTenant(t, ts, "leaker", assertd.TenantOptions{
		HeapMiB:    2,
		Provenance: "exhaustive",
		Trace:      &assertd.TraceOptions{Probability: 1},
	})
	submit(t, ts, "leaker", leakerSrc)

	res, hdr := driveTraced(t, ts, "leaker", 3, true, upstream)
	if res.Violations != 3 {
		t.Fatalf("drive violations = %d, want 3", res.Violations)
	}
	if res.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id %q does not continue the caller's trace", res.TraceID)
	}
	if res.TraceSampled != trace.KeepViolation {
		t.Errorf("sampled reason = %q, want %q", res.TraceSampled, trace.KeepViolation)
	}
	sc, ok := trace.ParseTraceparent(res.Traceparent)
	if !ok || sc.TraceID.String() != res.TraceID {
		t.Fatalf("response traceparent %q invalid or wrong trace", res.Traceparent)
	}
	if sc.SpanID.String() == "b7ad6b7169203331" {
		t.Error("response span id echoes the caller's span — no root span was minted")
	}
	if got := hdr.Get(trace.Header); got != res.Traceparent {
		t.Errorf("response header traceparent = %q, body says %q", got, res.Traceparent)
	}

	// The stored trace is listed and retrievable.
	var sums []trace.Summary
	doJSON(t, "GET", ts.URL+"/tenants/leaker/traces", nil, http.StatusOK, &sums)
	if len(sums) != 1 || sums[0].TraceID != res.TraceID {
		t.Fatalf("summaries = %+v, want the one kept trace", sums)
	}
	if sums[0].Requests != 3 || sums[0].Violations != 3 || sums[0].GCs == 0 {
		t.Errorf("summary rollup = %+v", sums[0])
	}
	doc := getTrace(t, ts, "leaker", res.TraceID)

	// Root span parents under the caller's span.
	root := doc.Span(doc.RootSpanID)
	if root == nil {
		t.Fatal("root span missing from document")
	}
	if root.Parent != "b7ad6b7169203331" {
		t.Errorf("root parent = %q, want the caller's span", root.Parent)
	}

	// Every violation rides a GC child span, with provenance and cost.
	spans := map[string]*trace.Span{}
	for i := range doc.Spans {
		spans[doc.Spans[i].SpanID] = &doc.Spans[i]
	}
	var viols int
	var sawProvenance, sawCost, sawReason bool
	var gcPauseSum int64
	for i := range doc.Spans {
		sp := &doc.Spans[i]
		if sp.Name != "gc" {
			continue
		}
		// JSON round-trips numeric attrs as float64.
		if ns, ok := sp.Attrs["total_ns"].(float64); ok {
			gcPauseSum += int64(ns)
		} else {
			t.Errorf("gc span %s has no total_ns attr: %v", sp.SpanID, sp.Attrs)
		}
		if r, _ := sp.Attrs["reason"].(string); r != "" {
			sawReason = true
		}
		if _, ok := sp.Attrs["cost_ns.assert-dead"]; ok {
			sawCost = true
		}
		for _, ev := range sp.Events {
			if !strings.HasPrefix(ev.Name, "violation:") {
				continue
			}
			viols++
			if ev.Name != "violation:assert-dead" {
				t.Errorf("violation event name = %q", ev.Name)
			}
			if site, _ := ev.Attrs["allocated_at"].(string); site != "" {
				sawProvenance = true
			}
			// The collection that detected the violation must be a child of
			// the request that triggered it (exact tag evidence).
			parent := spans[sp.Parent]
			if parent == nil || parent.Name != "request" {
				t.Errorf("violating gc span parented on %v, want a request span", parent)
			}
		}
	}
	if viols != 3 {
		t.Errorf("violation events on gc spans = %d, want 3", viols)
	}

	// The runtime's tag for a collection inside a request is that request's
	// span ID, in the span ID's own hex form, and the gc span is parented on
	// it.
	tn, _ := s.Tenant("leaker")
	tagged := 0
	for _, ev := range tn.Events() {
		if ev.Request == "" {
			continue
		}
		tagged++
		if req := spans[ev.Request]; req == nil || req.Name != "request" {
			t.Errorf("collection %d tagged %q, which names no request span", ev.Seq, ev.Request)
		}
		for i := range doc.Spans {
			if sp := &doc.Spans[i]; sp.Name == "gc" && sp.Attrs["seq"] == float64(ev.Seq) && sp.Parent != ev.Request {
				t.Errorf("gc span of collection %d parented on %s, its tag says %s", ev.Seq, sp.Parent, ev.Request)
			}
		}
	}
	if tagged == 0 {
		t.Error("no collection carries a request tag")
	}
	if !sawProvenance {
		t.Error("no violation event carries allocated_at provenance (provenance=exhaustive)")
	}
	if !sawCost {
		t.Error("no gc span carries per-kind cost attribution (cost_ns.assert-dead)")
	}
	if !sawReason {
		t.Error("no gc span carries a trigger/reason annotation")
	}

	// Reconciliation property: the document's pause rollup is exactly the
	// sum of its gc spans, and no more than the tenant's lifetime GC time.
	if gcPauseSum != doc.GCPauseNs {
		t.Errorf("sum of gc span pauses = %d, document rollup = %d", gcPauseSum, doc.GCPauseNs)
	}
	st := tenantStats(t, ts, "leaker")
	if doc.GCPauseNs <= 0 || doc.GCPauseNs > st.GCTotalNs {
		t.Errorf("trace pause %dns outside (0, tenant total %dns]", doc.GCPauseNs, st.GCTotalNs)
	}
	if doc.MaxPauseNs > st.MaxPauseNs {
		t.Errorf("trace max pause %dns exceeds tenant max %dns", doc.MaxPauseNs, st.MaxPauseNs)
	}
	if st.TracesStored != 1 {
		t.Errorf("stats traces_stored = %d, want 1", st.TracesStored)
	}

	// The latency histogram carries the kept trace as an exemplar, and the
	// exemplar resolves back to the stored trace.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	var exemplarID string
	for _, line := range strings.Split(string(metrics), "\n") {
		if !strings.HasPrefix(line, "gcassertd_request_seconds_bucket") || !strings.Contains(line, `trace_id="`) {
			continue
		}
		part := line[strings.Index(line, `trace_id="`)+len(`trace_id="`):]
		exemplarID = part[:strings.Index(part, `"`)]
		break
	}
	if exemplarID == "" {
		t.Fatal("no trace_id exemplar on gcassertd_request_seconds buckets")
	}
	if exemplarID != res.TraceID {
		t.Errorf("exemplar trace id = %s, want %s", exemplarID, res.TraceID)
	}
	getTrace(t, ts, "leaker", exemplarID) // must resolve (200)
}

// TestTracedDriveFreshTrace: with no (or a malformed) upstream traceparent
// the drive mints a fresh trace instead of failing.
func TestTracedDriveFreshTrace(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "svc", assertd.TenantOptions{
		HeapMiB: 2,
		Trace:   &assertd.TraceOptions{Probability: 1},
	})
	submit(t, ts, "svc", steadySrc)

	res, _ := driveTraced(t, ts, "svc", 1, false, "")
	if len(res.TraceID) != 32 {
		t.Fatalf("fresh trace id = %q", res.TraceID)
	}
	if res.TraceSampled != trace.KeepProbability {
		t.Errorf("sampled reason = %q, want %q", res.TraceSampled, trace.KeepProbability)
	}

	// A malformed header is ignored, never an error.
	res2, _ := driveTraced(t, ts, "svc", 1, false, "ff-bogus-header-01")
	if len(res2.TraceID) != 32 || res2.TraceID == res.TraceID {
		t.Errorf("malformed traceparent: trace id = %q", res2.TraceID)
	}
}

// TestTraceEndpoints404 pins the error contract: tracing disabled and
// unknown trace IDs are both 404, not 500.
func TestTraceEndpoints404(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "dark", assertd.TenantOptions{HeapMiB: 2})
	doJSON(t, "GET", ts.URL+"/tenants/dark/traces", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/tenants/dark/traces/0123456789abcdef0123456789abcdef", nil, http.StatusNotFound, nil)

	createTenant(t, ts, "lit", assertd.TenantOptions{HeapMiB: 2, Trace: &assertd.TraceOptions{Probability: 1}})
	doJSON(t, "GET", ts.URL+"/tenants/lit/traces/0123456789abcdef0123456789abcdef", nil, http.StatusNotFound, nil)

	// Invalid trace options are a 400 at create time.
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{
		ID:      "bad",
		Options: assertd.TenantOptions{Trace: &assertd.TraceOptions{Probability: 2}},
	}, http.StatusBadRequest, nil)

	// A dropped trace (probability 0, nothing interesting) stores nothing
	// and stamps no sampled reason, but still returns its trace ID.
	createTenant(t, ts, "quiet", assertd.TenantOptions{HeapMiB: 2, Trace: &assertd.TraceOptions{}})
	submit(t, ts, "quiet", steadySrc)
	res, _ := driveTraced(t, ts, "quiet", 1, false, "")
	if res.TraceID == "" || res.TraceSampled != "" {
		t.Errorf("dropped trace: id=%q sampled=%q", res.TraceID, res.TraceSampled)
	}
	var sums []trace.Summary
	doJSON(t, "GET", ts.URL+"/tenants/quiet/traces", nil, http.StatusOK, &sums)
	if len(sums) != 0 {
		t.Errorf("dropped trace was stored: %+v", sums)
	}
}

// TestTraceStoreEvictionOverHTTP drives more kept traces than the
// configured capacity and asserts the store sheds oldest-first (satellite:
// eviction-order coverage at the service layer, not just the unit).
func TestTraceStoreEvictionOverHTTP(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "svc", assertd.TenantOptions{
		HeapMiB: 2,
		Trace:   &assertd.TraceOptions{Capacity: 2, Probability: 1},
	})
	submit(t, ts, "svc", steadySrc)

	var ids []string
	for i := 0; i < 3; i++ {
		res, _ := driveTraced(t, ts, "svc", 1, false, "")
		if res.TraceSampled == "" {
			t.Fatalf("drive %d not sampled at probability 1", i)
		}
		ids = append(ids, res.TraceID)
	}

	var sums []trace.Summary
	doJSON(t, "GET", ts.URL+"/tenants/svc/traces", nil, http.StatusOK, &sums)
	if len(sums) != 2 {
		t.Fatalf("stored traces = %d, want capacity 2", len(sums))
	}
	// Newest first; the oldest drive's trace is the one evicted.
	if sums[0].TraceID != ids[2] || sums[1].TraceID != ids[1] {
		t.Errorf("summaries order = [%s %s], want [%s %s]", sums[0].TraceID, sums[1].TraceID, ids[2], ids[1])
	}
	doJSON(t, "GET", ts.URL+"/tenants/svc/traces/"+ids[0], nil, http.StatusNotFound, nil)
	getTrace(t, ts, "svc", ids[1])
	getTrace(t, ts, "svc", ids[2])
}

// TestDeleteDuringTracedDrive races tenant deletion against in-flight
// traced drives (run under -race): every drive either completes with a
// trace ID or reports the tenant gone, and nothing deadlocks or touches
// freed tracing state.
func TestDeleteDuringTracedDrive(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "victim", assertd.TenantOptions{
		HeapMiB:    2,
		Provenance: "sampled",
		Trace:      &assertd.TraceOptions{Probability: 1},
	})
	submit(t, ts, "victim", leakerSrc)

	const upstream = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	var wg sync.WaitGroup
	var once sync.Once
	driving := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				req, err := http.NewRequest("POST", ts.URL+"/tenants/victim/drive",
					strings.NewReader(`{"requests":1}`))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(trace.Header, upstream)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var res assertd.DriveResult
					if err := json.NewDecoder(resp.Body).Decode(&res); err == nil &&
						res.TraceID != "0af7651916cd43dd8448eb211c80319c" {
						t.Errorf("completed traced drive lost its trace: %q", res.TraceID)
					}
				case http.StatusNotFound:
				default:
					t.Errorf("traced drive during delete = %d", resp.StatusCode)
				}
				resp.Body.Close()
				once.Do(func() { close(driving) })
			}
		}()
	}
	<-driving
	doJSON(t, "DELETE", ts.URL+"/tenants/victim", nil, http.StatusOK, nil)
	wg.Wait()

	// The tenant is gone; its trace store must be unreachable, not stale.
	doJSON(t, "GET", ts.URL+"/tenants/victim/traces", nil, http.StatusNotFound, nil)
}
