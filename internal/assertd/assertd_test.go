package assertd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcassert/internal/assertd"
	"gcassert/internal/fleet"
)

// Guest programs for the tests. leakerSrc trips assert-dead once per run
// (the local still roots the node at the forced collection); steadySrc is
// violation-free churn; oomSrc retains until the heap gives out; spinSrc
// burns steps until the budget fails it; recurseSrc never returns from a call.
const (
	leakerSrc = `
class Node { Node next; }
class Main {
  void main() {
    Node n = new Node();
    assertDead(n);
    gc();
  }
}`
	steadySrc = `
class Node { Node next; }
class Main {
  void main() {
    Node g = null;
    int j = 0;
    while (j < 16) { Node t = new Node(); t.next = g; g = t; j = j + 1; }
    g = null;
    gc();
  }
}`
	oomSrc = `
class Node { Node next; }
class Main {
  void main() {
    Node head = null;
    int i = 0;
    while (i < 100000000) { Node t = new Node(); t.next = head; head = t; i = i + 1; }
  }
}`
	spinSrc = `
class Main {
  void main() {
    int i = 0;
    while (i < 100000000) { i = i + 1; }
  }
}`
	recurseSrc = `
class Main {
  int f(int n) { return this.f(n + 1); }
  void main() { int x = this.f(0); }
}`
)

// testServer stands up a Server plus its HTTP surface.
func testServer(t *testing.T, cfg assertd.Config) (*assertd.Server, *httptest.Server) {
	t.Helper()
	s := assertd.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
}

func createTenant(t *testing.T, ts *httptest.Server, id string, opts assertd.TenantOptions) {
	t.Helper()
	var st assertd.TenantStats
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{ID: id, Options: opts}, http.StatusCreated, &st)
	if st.ID != id {
		t.Fatalf("created tenant id = %q, want %q", st.ID, id)
	}
}

func submit(t *testing.T, ts *httptest.Server, id, src string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/tenants/"+id+"/program", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit to %s = %d: %s", id, resp.StatusCode, body)
	}
}

func drive(t *testing.T, ts *httptest.Server, id string, n int, collect bool) assertd.DriveResult {
	t.Helper()
	var res assertd.DriveResult
	doJSON(t, "POST", ts.URL+"/tenants/"+id+"/drive",
		assertd.DriveRequest{Requests: n, Collect: collect}, http.StatusOK, &res)
	return res
}

func tenantStats(t *testing.T, ts *httptest.Server, id string) assertd.TenantStats {
	t.Helper()
	var st assertd.TenantStats
	doJSON(t, "GET", ts.URL+"/tenants/"+id, nil, http.StatusOK, &st)
	return st
}

func TestTenantLifecycle(t *testing.T) {
	_, ts := testServer(t, assertd.Config{InstanceID: "host-1"})
	createTenant(t, ts, "steady", assertd.TenantOptions{HeapMiB: 4})
	submit(t, ts, "steady", steadySrc)

	res := drive(t, ts, "steady", 5, true)
	if res.Requests != 5 || res.Failures != 0 || res.Violations != 0 {
		t.Fatalf("drive result: %+v", res)
	}
	st := tenantStats(t, ts, "steady")
	if !st.Program || st.Requests != 5 || st.Failures != 0 || st.Violations != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Collections == 0 {
		t.Errorf("no collections recorded (guest calls gc())")
	}
	if st.Latency.Count != 5 || st.Latency.P99 <= 0 {
		t.Errorf("latency summary: %+v", st.Latency)
	}
	if st.InstanceID != "host-1/steady" {
		t.Errorf("instance ID = %q, want host-1/steady", st.InstanceID)
	}

	var list []assertd.TenantStats
	doJSON(t, "GET", ts.URL+"/tenants", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != "steady" {
		t.Errorf("list: %+v", list)
	}

	doJSON(t, "DELETE", ts.URL+"/tenants/steady", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/tenants/steady", nil, http.StatusNotFound, nil)
	// A deleted ID can be recreated fresh.
	createTenant(t, ts, "steady", assertd.TenantOptions{})
	if st := tenantStats(t, ts, "steady"); st.Requests != 0 {
		t.Errorf("recreated tenant inherited state: %+v", st)
	}
}

func TestLeakerViolationsAndStream(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "leaker", assertd.TenantOptions{HeapMiB: 4})
	submit(t, ts, "leaker", leakerSrc)

	// Attach the SSE stream before driving so no frame is missed.
	resp, err := http.Get(ts.URL + "/tenants/leaker/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	const runs = 3
	res := drive(t, ts, "leaker", runs, false)
	if res.Violations != runs {
		t.Errorf("drive violations = %d, want %d (one assert-dead per run)", res.Violations, runs)
	}
	sc := bufio.NewScanner(resp.Body)
	var frames []assertd.ViolationFrame
	for len(frames) < runs && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f assertd.ViolationFrame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	for i, f := range frames {
		if f.Tenant != "leaker" || f.Kind != "assert-dead" || f.TypeName != "Node" {
			t.Errorf("frame %d: %+v", i, f)
		}
		if f.Seq != uint64(i+1) {
			t.Errorf("frame %d seq = %d", i, f.Seq)
		}
	}
	st := tenantStats(t, ts, "leaker")
	if st.Violations != runs || st.ViolationsByKind["assert-dead"] != runs {
		t.Errorf("stats violations: %+v", st)
	}
	if len(st.AssertCosts) == 0 {
		t.Errorf("no assertion cost attribution in stats")
	}

	// Deleting the tenant ends the stream: the body reaches EOF rather
	// than hanging.
	doJSON(t, "DELETE", ts.URL+"/tenants/leaker", nil, http.StatusOK, nil)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		t.Logf("stream end: %v", err) // transport-level close variants are fine
	}
}

func TestGuestFaultIsolation(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "oom", assertd.TenantOptions{HeapMiB: 1})
	createTenant(t, ts, "spin", assertd.TenantOptions{HeapMiB: 1, MaxSteps: 10_000})
	createTenant(t, ts, "recurse", assertd.TenantOptions{HeapMiB: 1}) // the server's default step budget
	createTenant(t, ts, "ok", assertd.TenantOptions{HeapMiB: 4})
	submit(t, ts, "oom", oomSrc)
	submit(t, ts, "spin", spinSrc)
	submit(t, ts, "recurse", recurseSrc)
	submit(t, ts, "ok", steadySrc)

	if res := drive(t, ts, "oom", 2, false); res.Failures != 2 ||
		!strings.Contains(res.LastError, "out of memory") {
		t.Errorf("oom drive: %+v", res)
	}
	if res := drive(t, ts, "spin", 1, false); res.Failures != 1 ||
		!strings.Contains(res.LastError, "budget") {
		t.Errorf("spin drive: %+v", res)
	}
	// Unbounded guest recursion once overflowed the host's stack, which kills
	// the process for every tenant; it is the guest's own stack that overflows.
	if res := drive(t, ts, "recurse", 2, false); res.Failures != 2 ||
		!strings.Contains(res.LastError, "stack overflow") {
		t.Errorf("recurse drive: %+v", res)
	}
	// The faults were isolated: the healthy tenant — and the faulting
	// tenants themselves — keep serving.
	if res := drive(t, ts, "ok", 3, true); res.Failures != 0 || res.Violations != 0 {
		t.Errorf("healthy tenant after faults: %+v", res)
	}
	if res := drive(t, ts, "oom", 1, false); res.Requests != 1 {
		t.Errorf("oom tenant did not survive: %+v", res)
	}
}

func TestHaltReactionFailsRequestOnly(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "halting", assertd.TenantOptions{
		HeapMiB: 4,
		React:   map[string]string{"dead": "halt"},
	})
	submit(t, ts, "halting", leakerSrc)
	res := drive(t, ts, "halting", 2, false)
	if res.Failures != 2 || !strings.Contains(res.LastError, "halt") {
		t.Errorf("halting drive: %+v", res)
	}
	if res.Violations == 0 {
		t.Errorf("halt reaction reported no violations: %+v", res)
	}
	// The tenant survives its own halts.
	if _, err := http.Get(ts.URL + "/tenants/halting"); err != nil {
		t.Fatal(err)
	}
}

func TestAPIErrors(t *testing.T) {
	_, ts := testServer(t, assertd.Config{MaxTenants: 2})
	createTenant(t, ts, "a", assertd.TenantOptions{})

	// Duplicate create, bad IDs, capacity, unknown tenants, bad programs.
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{ID: "a"}, http.StatusConflict, nil)
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{ID: "no/slash"}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{ID: ""}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/tenants",
		assertd.CreateRequest{ID: "b", Options: assertd.TenantOptions{React: map[string]string{"dead": "explode"}}},
		http.StatusBadRequest, nil)
	createTenant(t, ts, "b", assertd.TenantOptions{})
	doJSON(t, "POST", ts.URL+"/tenants", assertd.CreateRequest{ID: "c"}, http.StatusServiceUnavailable, nil)

	doJSON(t, "GET", ts.URL+"/tenants/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/tenants/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/tenants/a/drive", assertd.DriveRequest{Requests: 1}, http.StatusConflict, nil) // no program
	resp, err := http.Post(ts.URL+"/tenants/a/program", "text/plain", strings.NewReader("class {"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad program = %d, want 400", resp.StatusCode)
	}
}

// TestRemovedOptionKeysAreIgnored: the options behind these keys are gone, so
// each key is unknown and ignored like any other: the tenant is created,
// collects within the deadline, and its document does not echo the key back.
// "workers" used to reach the collector unclamped, and a collection at width
// 200000 did not finish in five minutes — one unauthenticated create pinned
// the host; the second row's key used to select a second collection mode.
func TestRemovedOptionKeysAreIgnored(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(t *testing.T, path, ctype, body string, wantCode int) []byte {
		t.Helper()
		resp, err := client.Post(ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d, want %d; body: %s", path, resp.StatusCode, wantCode, raw)
		}
		return raw
	}
	for _, tc := range []struct{ key, value string }{
		{"workers", "200000"},
		{"generational", "true"},
	} {
		t.Run(tc.key, func(t *testing.T) {
			id := "h-" + tc.key
			post(t, "/tenants", "application/json", fmt.Sprintf(`{"id":%q,"options":{%q:%s}}`, id, tc.key, tc.value), http.StatusCreated)
			post(t, "/tenants/"+id+"/program", "text/plain", steadySrc, http.StatusOK)
			var res assertd.DriveResult
			if err := json.Unmarshal(post(t, "/tenants/"+id+"/drive", "application/json", `{"requests":1,"collect":true}`, http.StatusOK), &res); err != nil {
				t.Fatal(err)
			}
			if res.Requests != 1 || res.Failures != 0 {
				t.Fatalf("drive = %+v, want one clean request", res)
			}

			var doc struct {
				Options     map[string]any `json:"options"`
				Collections uint64         `json:"collections"`
			}
			doJSON(t, "GET", ts.URL+"/tenants/"+id, nil, http.StatusOK, &doc)
			if _, echoed := doc.Options[tc.key]; echoed {
				t.Errorf("tenant document carries a %s key: %v", tc.key, doc.Options)
			}
			if doc.Collections == 0 {
				t.Error("the drive collected nothing")
			}
		})
	}
}

func TestMetricsCarryTenantLabel(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	for _, id := range []string{"m1", "m2"} {
		createTenant(t, ts, id, assertd.TenantOptions{HeapMiB: 4})
		submit(t, ts, id, steadySrc)
		drive(t, ts, id, 2, true)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`gcassertd_requests_total{tenant="m1"} 2`,
		`gcassertd_requests_total{tenant="m2"} 2`,
		`gcassertd_tenants 2`,
		`gcassertd_heap_live_words{tenant="m1"}`,
		`gcassertd_request_seconds_count{tenant="m2"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Series survive tenant deletion (counters must not reset or vanish
	// mid-scrape-interval).
	doJSON(t, "DELETE", ts.URL+"/tenants/m1", nil, http.StatusOK, nil)
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), `gcassertd_requests_total{tenant="m1"} 2`) {
		t.Errorf("deleted tenant's series vanished from /metrics")
	}
}

func TestEventsStreamReplay(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})
	createTenant(t, ts, "ev", assertd.TenantOptions{HeapMiB: 4})
	submit(t, ts, "ev", steadySrc)
	drive(t, ts, "ev", 2, true) // at least 3 collections (2 gc() + forced)

	ctxURL := fmt.Sprintf("%s/tenants/ev/events?replay=%d", ts.URL, 2)
	req, _ := http.NewRequest("GET", ctxURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	got := 0
	for got < 2 && sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			var ev struct {
				Seq    uint64 `json:"seq"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &ev); err != nil {
				t.Fatalf("bad event frame: %v", err)
			}
			got++
		}
	}
	if got != 2 {
		t.Fatalf("replayed %d events, want 2", got)
	}
}

// TestTenantOptionClamps: resource options past the host's per-tenant
// budget are clamped silently at creation, and the tenant document echoes
// the clamped value.
func TestTenantOptionClamps(t *testing.T) {
	_, ts := testServer(t, assertd.Config{DefaultHeapMiB: 1, MaxHeapMiB: 2})
	cases := []struct {
		name    string
		options string
		got     func(o assertd.TenantOptions) int64
		want    int64
	}{
		{"heap_mib/default", `{}`, func(o assertd.TenantOptions) int64 { return int64(o.HeapMiB) }, 1},
		{"heap_mib/past-max", `{"heap_mib":1048576}`, func(o assertd.TenantOptions) int64 { return int64(o.HeapMiB) }, 2},
		{"heap_mib/in-range", `{"heap_mib":2}`, func(o assertd.TenantOptions) int64 { return int64(o.HeapMiB) }, 2},
		{"max_steps/default", `{}`, func(o assertd.TenantOptions) int64 { return int64(o.MaxSteps) }, 50_000_000},
		{"max_steps/past-max", `{"max_steps":18446744073709551615}`, func(o assertd.TenantOptions) int64 { return int64(o.MaxSteps) }, 50_000_000},
		{"max_steps/in-range", `{"max_steps":1000}`, func(o assertd.TenantOptions) int64 { return int64(o.MaxSteps) }, 1000},
		{"trace.capacity/past-max", `{"trace":{"capacity":1073741824}}`, func(o assertd.TenantOptions) int64 { return int64(o.Trace.Capacity) }, 1024},
		{"trace.capacity/in-range", `{"trace":{"capacity":16}}`, func(o assertd.TenantOptions) int64 { return int64(o.Trace.Capacity) }, 16},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := fmt.Sprintf("c%d", i)
			resp, err := http.Post(ts.URL+"/tenants", "application/json",
				strings.NewReader(fmt.Sprintf(`{"id":%q,"options":%s}`, id, tc.options)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create = %d, want %d", resp.StatusCode, http.StatusCreated)
			}
			var doc struct {
				Options assertd.TenantOptions `json:"options"`
			}
			doJSON(t, "GET", ts.URL+"/tenants/"+id, nil, http.StatusOK, &doc)
			if got := tc.got(doc.Options); got != tc.want {
				t.Errorf("tenant document echoes %d, want %d", got, tc.want)
			}
		})
	}
}

// TestFleetTenantReportsIntrospection: a server with a fleet collector runs
// every tenant's census, because the census is what ships, so the tenant
// document reports introspection on although the tenant did not ask.
func TestFleetTenantReportsIntrospection(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fleetTS := httptest.NewServer(fleet.NewServer(store).Handler())
	defer fleetTS.Close()
	_, ts := testServer(t, assertd.Config{FleetURL: fleetTS.URL})
	createTenant(t, ts, "shipped", assertd.TenantOptions{})
	var doc struct {
		Options assertd.TenantOptions `json:"options"`
	}
	doJSON(t, "GET", ts.URL+"/tenants/shipped", nil, http.StatusOK, &doc)
	if !doc.Options.Introspection {
		t.Error("tenant document reports introspection off on a server that ships its census")
	}
}
