package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get performs one request against the tracer's handler and returns the
// recorded response.
func get(t *testing.T, tr *Tracer, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, req)
	return rec
}

// TestHandlerStatusAndContentTypes pins the status code and Content-Type
// header of every route the tracer serves itself. A runtime's full debug
// surface, with the other layers' routes, is pinned by the root package's
// TestDebugRoutes.
func TestHandlerStatusAndContentTypes(t *testing.T) {
	tr := New(Config{})
	cases := []struct {
		name       string
		url        string
		wantStatus int
		wantCT     string
		wantInBody string
	}{
		{"metrics", "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", "gcassert_gc_pause_seconds"},
		{"trace-default", "/debug/gcassert/trace", 200, "application/x-ndjson", ""},
		{"trace-jsonl", "/debug/gcassert/trace?format=jsonl", 200, "application/x-ndjson", ""},
		{"trace-gctrace", "/debug/gcassert/trace?format=gctrace", 200, "text/plain; charset=utf-8", ""},
		{"trace-chrome", "/debug/gcassert/trace?format=chrome", 200, "application/json", "["},
		{"trace-bad-format", "/debug/gcassert/trace?format=nope", 400, "text/plain; charset=utf-8", "unknown format"},
		{"violations", "/debug/gcassert/violations", 200, "text/plain; charset=utf-8", "violations logged"},
		{"index", "/debug/gcassert/", 200, "text/plain; charset=utf-8", "/debug/gcassert/trace"},
		{"index-unknown-path", "/debug/gcassert/nope", 404, "text/plain; charset=utf-8", "404"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, tr, tc.url)
			if rec.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d (body: %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != tc.wantCT {
				t.Errorf("Content-Type = %q, want %q", ct, tc.wantCT)
			}
			if tc.wantInBody != "" && !strings.Contains(rec.Body.String(), tc.wantInBody) {
				t.Errorf("body does not contain %q:\n%s", tc.wantInBody, rec.Body.String())
			}
		})
	}
}

// TestIndexMarksUnavailableEndpoints: the index lists every route in order,
// and flags exactly the ones marked unavailable with what enables them.
func TestIndexMarksUnavailableEndpoints(t *testing.T) {
	ok := func(w http.ResponseWriter, _ *http.Request) {}
	h := Serve([]Route{
		{Pattern: "/a", Desc: "on", Handler: ok},
		{Pattern: "/b", Desc: "off", Handler: ok, Enable: "Something"},
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, indexPattern, nil))
	want := "gcassert debug endpoints\n\n" +
		"/a                           on\n" +
		"/b                           off  [unavailable: enable Something]\n" +
		"/debug/gcassert/             this index\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("index:\n%s\nwant:\n%s", got, want)
	}
}
