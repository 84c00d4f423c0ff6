package gcassert_test

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gcassert"
)

// churnWithLeak runs a list-building workload on vm with one asserted-dead
// object kept live, forcing several alloc-failure collections plus a final
// forced one.
func churnWithLeak(t *testing.T, vm *gcassert.Runtime) {
	t.Helper()
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(2)
	leak := th.New(node)
	fr.Set(0, leak)
	vm.AssertDead(leak)
	for round := 0; round < 6; round++ {
		head := gcassert.Nil
		for i := 0; i < 20_000; i++ {
			n := th.New(node)
			vm.SetRef(n, 0, head)
			head = n
			fr.Set(1, head)
		}
		fr.Set(1, gcassert.Nil)
	}
	vm.Collect()
	if st := vm.GCStats(); st.Collections < 2 {
		t.Fatalf("workload drove only %d collections; need ≥2", st.Collections)
	}
}

// TestTelemetryEndToEnd drives a real workload and checks the acceptance
// criterion from the issue: per-phase sums over the event stream must agree
// with GCStats within 1%.
func TestTelemetryEndToEnd(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      1 << 20,
		Infrastructure: true,
		Telemetry:      true,
	})
	churnWithLeak(t, vm)

	tel := vm.Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() returned nil with Options.Telemetry set")
	}
	events := tel.Events()
	st := vm.GCStats()
	if uint64(len(events)) != st.Collections {
		t.Fatalf("%d events, %d collections", len(events), st.Collections)
	}

	var own, mark, sweep, total int64
	for i := range events {
		e := &events[i]
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Errorf("non-monotonic Seq at %d", i)
		}
		own += e.PhaseNs("ownership")
		mark += e.PhaseNs("mark")
		sweep += e.PhaseNs("sweep")
		total += e.TotalNs
	}
	within1pct := func(name string, evNs int64, stat int64) {
		if stat == 0 && evNs == 0 {
			return
		}
		if dev := math.Abs(float64(evNs)/float64(stat) - 1); dev > 0.01 {
			t.Errorf("%s: event stream %dns vs GCStats %dns (%.2f%% off)", name, evNs, stat, 100*dev)
		}
	}
	within1pct("ownership", own, int64(st.OwnershipTime))
	within1pct("mark", mark, int64(st.MarkTime))
	within1pct("sweep", sweep, int64(st.SweepTime))
	within1pct("total", total, int64(st.TotalGCTime))

	if h := tel.PauseHistogram(); h.Count() != uint64(st.Collections) {
		t.Errorf("pause histogram count = %d, want %d", h.Count(), st.Collections)
	}

	// The forced Collect and the alloc-failure collections are both labeled.
	var sawForced, sawAlloc bool
	for i := range events {
		switch gcassert.GCReason(events[i].Reason) {
		case gcassert.ReasonForced:
			sawForced = true
		case gcassert.ReasonAllocFailure:
			sawAlloc = true
		}
	}
	if !sawForced || !sawAlloc {
		t.Errorf("reasons: forced=%v alloc-failure=%v", sawForced, sawAlloc)
	}

	// Assertion activity reached the per-kind counters and the violation log.
	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	for _, want := range []string{
		"gcassert_gc_collections_total{reason=\"forced\"} 1",
		"gcassert_gc_pause_seconds_bucket",
		"gcassert_assert_checks_total{kind=\"assert-dead\"}",
		"gcassert_assert_violations_total{kind=\"assert-dead\"}",
		"gcassert_alloc_objects_total",
		"gcassert_heap_live_objects",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	reports, totalViols := tel.Violations()
	if totalViols == 0 || len(reports) == 0 {
		t.Errorf("violation log empty: %d logged, %d retained", totalViols, len(reports))
	} else if !strings.Contains(reports[0], "asserted dead") {
		t.Errorf("violation report = %q", reports[0])
	}
}

// TestTelemetryJSONLMatchesEvents re-parses the JSONL export and compares
// it field-by-field against the in-memory events.
func TestTelemetryJSONLMatchesEvents(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 1 << 20, Telemetry: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	for i := 0; i < 30_000; i++ {
		fr.Set(0, th.New(node))
	}
	vm.Collect()

	tel := vm.Telemetry()
	events := tel.Events()
	var sb strings.Builder
	if err := tel.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var n int
	for sc.Scan() {
		var e gcassert.GCEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if n >= len(events) {
			t.Fatalf("more JSONL lines than events (%d)", len(events))
		}
		if e.Seq != events[n].Seq || e.TotalNs != events[n].TotalNs || e.Reason != events[n].Reason {
			t.Errorf("line %d: %+v != %+v", n+1, e, events[n])
		}
		n++
	}
	if n != len(events) {
		t.Errorf("%d JSONL lines, %d events", n, len(events))
	}
}

// TestTelemetryHandler exercises every endpoint of the HTTP surface.
func TestTelemetryHandler(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      1 << 20,
		Infrastructure: true,
		Telemetry:      true,
	})
	churnWithLeak(t, vm)
	srv := httptest.NewServer(vm.TelemetryHandler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "gcassert_gc_pause_seconds_count") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/debug/gcassert/trace"); code != 200 || !strings.Contains(body, `"seq":0`) {
		t.Errorf("/debug/gcassert/trace: %d\n%s", code, body)
	}
	if code, body := get("/debug/gcassert/trace?format=gctrace"); code != 200 || !strings.HasPrefix(body, "gc 1 @") {
		t.Errorf("gctrace format: %d\n%s", code, body)
	}
	code, body := get("/debug/gcassert/trace?format=chrome")
	if code != 200 {
		t.Fatalf("chrome format: %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("chrome trace invalid (err=%v, %d events)", err, len(tr.TraceEvents))
	}
	if code, _ := get("/debug/gcassert/trace?format=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", code)
	}
	if code, body := get("/debug/gcassert/violations"); code != 200 ||
		!strings.Contains(body, "violations logged") || !strings.Contains(body, "asserted dead") {
		t.Errorf("/debug/gcassert/violations: %d\n%s", code, body)
	}
	// The runtime is quiescent here (workload done), so the heap profile is
	// safe to scrape.
	if code, body := get("/debug/gcassert/heap"); code != 200 || !strings.Contains(body, "Node") {
		t.Errorf("/debug/gcassert/heap: %d\n%s", code, body)
	}
}

// TestTelemetryConcurrentDrain is the issue's race test: a reader goroutine
// drains the event ring and renders metrics while the workload GCs. Run
// under -race this proves the read paths are safe mid-collection.
func TestTelemetryConcurrentDrain(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      1 << 20,
		Infrastructure: true,
		Telemetry:      true,
	})
	tel := vm.Telemetry()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			events := tel.Events()
			for i := 1; i < len(events); i++ {
				if events[i].Seq <= events[i-1].Seq {
					t.Error("non-monotonic snapshot while GCing")
					return
				}
			}
			if err := tel.WriteMetrics(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := tel.WriteJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := tel.WriteChromeTrace(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = tel.PauseHistogram().Quantile(0.99)
			_, _ = tel.Violations()
		}
	}()

	churnWithLeak(t, vm)
	close(stop)
	wg.Wait()

	if tel.Ring().Total() == 0 {
		t.Error("no events recorded")
	}
}

// TestTelemetryDisabled: without the option there is no tracer and the
// handler refuses to build.
func TestTelemetryDisabled(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 1 << 20})
	if vm.Telemetry() != nil {
		t.Error("Telemetry() non-nil without Options.Telemetry")
	}
	defer func() {
		if recover() == nil {
			t.Error("TelemetryHandler did not panic without telemetry")
		}
	}()
	vm.TelemetryHandler()
}
