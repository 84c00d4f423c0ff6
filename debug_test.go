package gcassert_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"gcassert"
	"gcassert/internal/fleet"
)

// debugIndex is the index of the runtime's debug surface, in order: each
// route's pattern, description and — for a route served by an optional
// layer — what the index says enables it while the layer is off.
var debugIndex = []struct{ pattern, desc, enable string }{
	{"/metrics", "Prometheus text exposition", ""},
	{"/debug/gcassert/trace", "GC event trace (?format=jsonl|gctrace|chrome)", ""},
	{"/debug/gcassert/violations", "recent violation reports", ""},
	{"/debug/gcassert/heap", "live-heap profile by type", ""},
	{"/debug/gcassert/census", "per-type census snapshots (?last=N)", "Introspection"},
	{"/debug/gcassert/leaks", "leak suspects (?window=N&top=N)", "Introspection"},
	{"/debug/gcassert/fr", "flight-recorder bundle", "FlightRecorder"},
	{"/debug/gcassert/fleet", "fleet exporter status (POST ?export=now to ship a census)", "a fleet exporter (FleetURL)"},
	{"/debug/gcassert/live", "live GC event stream (SSE; ?replay=N resends recent events)", ""},
}

// indexLines renders debugIndex as the index body with every optional
// layer off or on.
func indexLines(on bool) string {
	var b strings.Builder
	b.WriteString("gcassert debug endpoints\n\n")
	for _, r := range debugIndex {
		suffix := ""
		if !on && r.enable != "" {
			suffix = "  [unavailable: enable " + r.enable + "]"
		}
		fmt.Fprintf(&b, "%-28s %s%s\n", r.pattern, r.desc, suffix)
	}
	fmt.Fprintf(&b, "%-28s %s\n", "/debug/gcassert/", "this index")
	return b.String()
}

// debugRuntimes returns two telemetry runtimes after the same workload, a
// churn with an asserted-dead object kept live and a growing leak: one with every other optional layer off (census, flight
// recorder, fleet exporter), one with all of them on, exporting to a
// collector in the same process.
func debugRuntimes(t *testing.T) (off, on *gcassert.Runtime) {
	t.Helper()
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	t.Cleanup(ts.Close)
	opts := gcassert.Options{HeapBytes: 1 << 20, Infrastructure: true, Telemetry: true}
	off = gcassert.New(opts)
	opts.Introspection, opts.FlightRecorder, opts.FleetURL, opts.InstanceID = true, true, ts.URL, "debug-routes"
	on = gcassert.New(opts)
	t.Cleanup(on.CloseFleet)
	for _, vm := range []*gcassert.Runtime{off, on} {
		churnWithLeak(t, vm)
		growLeak(vm, 4)
	}
	return off, on
}

// growLeak keeps a list of Orderline objects live from a root and grows it
// by 500 objects before each of rounds collections: a seeded leak for the
// census to rank.
func growLeak(vm *gcassert.Runtime, rounds int) {
	line := vm.Define("Orderline", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("leaker")
	fr := th.Push(1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < 500; i++ {
			n := th.New(line)
			vm.SetRef(n, 0, fr.Get(0))
			fr.Set(0, n)
		}
		vm.Collect()
	}
}

// serveDebug performs one request against vm's debug surface. The request
// context is canceled up front, so the live feed writes its replay and
// returns instead of streaming.
func serveDebug(vm *gcassert.Runtime, method, url string) *httptest.ResponseRecorder {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	vm.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest(method, url, nil).WithContext(ctx))
	return rec
}

// TestDebugRoutes pins every route of the runtime's debug surface with
// each optional layer off and on: status code, Content-Type, a body marker,
// and the route's line in that runtime's index, including the
// "[unavailable: enable …]" hint of a route whose layer is off. Query
// parameters are checked to reach the document.
func TestDebugRoutes(t *testing.T) {
	off, on := debugRuntimes(t)
	const (
		text = "text/plain; charset=utf-8"
		js   = "application/json"
	)
	// jsonLen returns a check that the JSON document's array field has n
	// entries and its number field, if named, the value v.
	jsonLen := func(field string, n int, num string, v float64) func(string) string {
		return func(body string) string {
			var doc map[string]any
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				return err.Error()
			}
			if arr, _ := doc[field].([]any); len(arr) != n {
				return fmt.Sprintf("%s has %d entries, want %d", field, len(arr), n)
			}
			if num != "" && doc[num] != v {
				return fmt.Sprintf("%s = %v, want %v", num, doc[num], v)
			}
			return ""
		}
	}
	cases := []struct {
		name   string
		on     bool
		method string
		url    string
		status int
		ct     string
		marker string
		check  func(body string) string // "" when the body is right
	}{
		{"metrics", false, "GET", "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", "gcassert_gc_pause_seconds_count", nil},
		{"metrics-census-gauges", true, "GET", "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", `gcassert_census_live_objects{type="Node"}`, nil},
		{"trace-default", false, "GET", "/debug/gcassert/trace", 200, "application/x-ndjson", `"seq":0`, nil},
		{"trace-jsonl", false, "GET", "/debug/gcassert/trace?format=jsonl", 200, "application/x-ndjson", `"seq":0`, nil},
		{"trace-gctrace", false, "GET", "/debug/gcassert/trace?format=gctrace", 200, text, "gc 1 @", nil},
		{"trace-chrome", false, "GET", "/debug/gcassert/trace?format=chrome", 200, js, "traceEvents", nil},
		{"trace-bad-format", false, "GET", "/debug/gcassert/trace?format=nope", 400, text, "unknown format", nil},
		{"violations", false, "GET", "/debug/gcassert/violations", 200, text, "asserted dead", nil},
		{"heap-off", false, "GET", "/debug/gcassert/heap", 200, text, "Node", nil},
		{"heap-on", true, "GET", "/debug/gcassert/heap", 200, text, "Node", nil},
		{"census-off", false, "GET", "/debug/gcassert/census", 404, text, "no census source installed (enable Introspection)", nil},
		{"census-on", true, "GET", "/debug/gcassert/census", 200, js, `"type_name": "Node"`, nil},
		{"census-last", true, "GET", "/debug/gcassert/census?last=1", 200, js, `"snapshots"`, jsonLen("snapshots", 1, "", 0)},
		{"census-bad-last", true, "GET", "/debug/gcassert/census?last=-1", 400, text, "bad last", nil},
		{"leaks-off", false, "GET", "/debug/gcassert/leaks", 404, text, "no leak source installed (enable Introspection)", nil},
		{"leaks-on", true, "GET", "/debug/gcassert/leaks", 200, js, `"suspects"`, nil},
		{"leaks-params", true, "GET", "/debug/gcassert/leaks?window=2&top=1", 200, js, `"suspects"`, jsonLen("suspects", 1, "window", 2)},
		{"leaks-bad-window", true, "GET", "/debug/gcassert/leaks?window=x", 400, text, "bad window", nil},
		{"leaks-bad-top", true, "GET", "/debug/gcassert/leaks?top=-2", 400, text, "bad top", nil},
		{"fr-off", false, "GET", "/debug/gcassert/fr", 404, text, "no flight recorder installed (enable FlightRecorder)", nil},
		{"fr-on", true, "GET", "/debug/gcassert/fr", 200, js, `"trigger": "http"`, nil},
		{"fleet-off", false, "GET", "/debug/gcassert/fleet", 404, text, "no fleet exporter installed (set FleetURL)", nil},
		{"fleet-on", true, "GET", "/debug/gcassert/fleet", 200, js, `"instance_id": "debug-routes"`, nil},
		{"fleet-export-get", true, "GET", "/debug/gcassert/fleet?export=now", 405, text, "POST to trigger", nil},
		{"fleet-export-post", true, "POST", "/debug/gcassert/fleet?export=now", 200, js, `"exported_hash"`, nil},
		{"live", false, "GET", "/debug/gcassert/live?replay=2", 200, "text/event-stream", "data: {", nil},
		{"live-bad-replay", false, "GET", "/debug/gcassert/live?replay=x", 400, text, "bad replay", nil},
		{"index-off", false, "GET", "/debug/gcassert/", 200, text, "[unavailable: enable Introspection]", nil},
		{"index-on", true, "GET", "/debug/gcassert/", 200, text, "this index", nil},
		{"index-unknown-path", false, "GET", "/debug/gcassert/nope", 404, text, "404 page not found", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := off
			if tc.on {
				vm = on
			}
			rec := serveDebug(vm, tc.method, tc.url)
			body := rec.Body.String()
			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d (body: %s)", rec.Code, tc.status, body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != tc.ct {
				t.Errorf("Content-Type = %q, want %q", ct, tc.ct)
			}
			if !strings.Contains(body, tc.marker) {
				t.Errorf("body does not contain %q:\n%s", tc.marker, body)
			}
			if tc.check != nil {
				if why := tc.check(body); why != "" {
					t.Errorf("%s:\n%s", why, body)
				}
			}
			path, _, _ := strings.Cut(tc.url, "?")
			for _, r := range debugIndex {
				if r.pattern != path {
					continue
				}
				line := fmt.Sprintf("%-28s %s", r.pattern, r.desc)
				if !tc.on && r.enable != "" {
					line += "  [unavailable: enable " + r.enable + "]"
				}
				if index := serveDebug(vm, "GET", "/debug/gcassert/").Body.String(); !strings.Contains(index, line+"\n") {
					t.Errorf("index lacks the line %q:\n%s", line, index)
				}
			}
		})
	}
}

// TestDebugRouteParams: the census and leaks query parameters reach the
// document, for more than one value each — a route that parsed them but
// passed a constant on would serve the same document for every query.
func TestDebugRouteParams(t *testing.T) {
	_, on := debugRuntimes(t)
	doc := func(url string) map[string]any {
		t.Helper()
		rec := serveDebug(on, "GET", url)
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d (body: %s)", url, rec.Code, rec.Body.String())
		}
		var d map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		return d
	}
	for _, n := range []int{1, 2, 3} {
		url := fmt.Sprintf("/debug/gcassert/census?last=%d", n)
		if snaps, _ := doc(url)["snapshots"].([]any); len(snaps) != n {
			t.Errorf("%s: %d snapshots, want %d", url, len(snaps), n)
		}
	}
	for _, p := range []struct{ window, top int }{{2, 1}, {3, 2}} {
		url := fmt.Sprintf("/debug/gcassert/leaks?window=%d&top=%d", p.window, p.top)
		d := doc(url)
		if d["window"] != float64(p.window) {
			t.Errorf("%s: window = %v, want %d", url, d["window"], p.window)
		}
		if sus, _ := d["suspects"].([]any); len(sus) > p.top || len(sus) == 0 {
			t.Errorf("%s: %d suspects, want 1..%d", url, len(sus), p.top)
		}
	}
}

// TestIndexMatchesRoutes: with every optional layer off and on, the index
// is exactly debugIndex, in order, and every path it advertises is routed —
// a 404 from a route whose layer is off explains itself, unlike the mux's
// own "page not found".
func TestIndexMatchesRoutes(t *testing.T) {
	off, on := debugRuntimes(t)
	for _, vm := range []*gcassert.Runtime{off, on} {
		isOn := vm == on
		rec := serveDebug(vm, "GET", "/debug/gcassert/")
		if got, want := rec.Body.String(), indexLines(isOn); got != want {
			t.Errorf("layers on=%v: index\n%s\nwant\n%s", isOn, got, want)
		}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if !strings.HasPrefix(line, "/") {
				continue
			}
			p := strings.Fields(line)[0]
			if rec := serveDebug(vm, "GET", p); rec.Code == 404 && strings.Contains(rec.Body.String(), "page not found") {
				t.Errorf("layers on=%v: the index advertises %s but the mux does not route it", isOn, p)
			}
		}
	}
}
