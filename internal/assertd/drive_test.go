package assertd

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"gcassert/internal/slo"
)

// driveAllocsSrc builds a 16-node list per request and never collects, so a
// measured window of requests runs no collection on a 2 MiB heap.
const driveAllocsSrc = `
class Node { Node next; }
class Main {
  void main() {
    Node g = null;
    int j = 0;
    while (j < 16) { Node t = new Node(); t.next = g; g = t; j = j + 1; }
  }
}`

// TestDriveAllocations pins the host allocations of one drive of one
// request, on a tenant with every optional layer off and on one with SLO,
// tracing and introspection on (the sampler drops every trace, which is
// what 95 % of a 5 %-sampled tenant's drives do). tenant is Tenant.Drive
// alone: the stats refresh's pause-histogram snapshot and assertion cost
// slice, plus the SLO status document and the reply's traceparent when
// those layers are on. handler is the whole HTTP drive handler, net of the
// request and recorder the test itself builds: JSON decoding and encoding
// by encoding/json, routing, and the response headers.
func TestDriveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	cases := []struct {
		name            string
		opts            TenantOptions
		tenant, handler float64
	}{
		{"all-off", TenantOptions{HeapMiB: 2}, 2, 18},
		{"slo+trace+introspection", TenantOptions{
			HeapMiB:       2,
			Introspection: true,
			Trace:         &TraceOptions{Probability: 0},
			SLO: &slo.Spec{Objectives: []slo.Objective{
				{Kind: slo.KindAvailability, TargetPct: 99.9},
				{Kind: slo.KindViolationRate, MaxPerMillion: 1000},
				{Kind: slo.KindPauseP99, MaxMs: 50},
			}},
		}, 6, 23},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(Config{})
			defer s.Close()
			tn, err := s.CreateTenant("alloc", c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tn.Submit(driveAllocsSrc); err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			newReq := func() (*httptest.ResponseRecorder, *http.Request) {
				return httptest.NewRecorder(), httptest.NewRequest("POST", "/tenants/alloc/drive", strings.NewReader(`{"requests":1}`))
			}
			// Warm the pools and the stacks, then start from an empty heap.
			for i := 0; i < 10; i++ {
				rec, req := newReq()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("drive = %d: %s", rec.Code, rec.Body)
				}
			}
			if err := tn.Collect(); err != nil {
				t.Fatal(err)
			}
			collections := tn.Stats().Collections

			tenant := testing.AllocsPerRun(100, func() {
				if _, err := tn.Drive(1, false); err != nil {
					t.Fatal(err)
				}
			})
			scaffold := testing.AllocsPerRun(100, func() { newReq() })
			handler := testing.AllocsPerRun(100, func() {
				rec, req := newReq()
				h.ServeHTTP(rec, req)
			}) - scaffold
			if got := tn.Stats().Collections; got != collections {
				t.Fatalf("%d collections ran in the measured window; the counts would include them", got-collections)
			}
			t.Logf("Tenant.Drive %.0f allocations, drive handler %.0f", tenant, handler)
			if tenant > c.tenant {
				t.Errorf("Tenant.Drive allocates %.0f times, want at most %.0f", tenant, c.tenant)
			}
			if handler > c.handler {
				t.Errorf("the drive handler allocates %.0f times, want at most %.0f", handler, c.handler)
			}
		})
	}
}

// The runtime is reached by taking the tenant's guest, not through a
// goroutine of its own: a created tenant adds none.
func TestTenantsAddNoGoroutines(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	before := runtime.NumGoroutine()
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"} {
		if _, err := s.CreateTenant(id, TenantOptions{HeapMiB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("creating 10 tenants added %d goroutines", after-before)
	}
}

// TestCodecErrors covers what the JSON codec answers when it cannot do its
// job: a reply that does not encode is a 500, not an empty 200, and a body
// past maxJSONBody is a 413, not a 400 about JSON cut short.
func TestCodecErrors(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.CreateTenant("t", TenantOptions{HeapMiB: 1}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// padded is a JSON document of n bytes, valid in every handler: unknown
	// keys are ignored.
	padded := func(n int) string {
		return `{"pad":"` + strings.Repeat("x", n-len(`{"pad":""}`)) + `"}`
	}
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
		code  int
	}{
		{"unencodable reply", func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, math.Inf(1)) }, http.StatusInternalServerError},
		{"create body too large", serve(h, "POST", "/tenants", padded(maxJSONBody+1)), http.StatusRequestEntityTooLarge},
		{"drive body too large", serve(h, "POST", "/tenants/t/drive", padded(maxJSONBody+1)), http.StatusRequestEntityTooLarge},
		{"slo body too large", serve(h, "PUT", "/tenants/t/slo", padded(maxJSONBody+1)), http.StatusRequestEntityTooLarge},
		// Decoded, then refused for want of a program.
		{"drive body at the limit", serve(h, "POST", "/tenants/t/drive", padded(maxJSONBody)), http.StatusConflict},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			c.serve(rec)
			if rec.Code != c.code {
				t.Errorf("status %d, want %d; body %q", rec.Code, c.code, rec.Body)
			}
		})
	}
}

// serve returns a call of h with one request.
func serve(h http.Handler, method, path, body string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	}
}
