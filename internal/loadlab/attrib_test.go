package loadlab

import (
	"fmt"
	"testing"

	"gcassert"
)

// TestAttributionReconcilesWithPauseHistogram is the lab's acceptance
// property: drive real load on a real runtime and the summed attributed
// service-pause time must equal the telemetry pause histogram's total for
// the same run, exactly. The serial service loop guarantees every pause
// nests inside one request's service window; any drift here means the
// attribution arithmetic (or the event stream's pause windows) is wrong.
func TestAttributionReconcilesWithPauseHistogram(t *testing.T) {
	configs := []struct {
		name     string
		heap     int
		rps      float64
		requests int
		churn    int
		forced   int // force a collection every N requests (0 = never)
	}{
		{"exhaustion-only", 1 << 20, 4000, 300, 256, 0},
		{"forced-and-exhaustion", 1 << 20, 2000, 200, 128, 7},
		{"forced-only-low-rps", 16 << 20, 500, 60, 64, 5},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			vm := gcassert.New(gcassert.Options{
				HeapBytes:      cfg.heap,
				Infrastructure: true,
				Telemetry:      true,
			})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("svc")
			fr := th.Push(2)

			log := NewEventLog(vm.Telemetry())
			pausesBefore := vm.Telemetry().PauseHistogram().Sum()
			if pausesBefore != 0 {
				t.Fatalf("collections before the run: %v", pausesBefore)
			}

			rep, err := Run(Options{RPS: cfg.rps, Requests: cfg.requests, Capture: true}, func(seq int) {
				// Churn: a short-lived list per request, with an assert-dead
				// on a dropped node now and then so collections carry
				// assertion work for the by-kind blame.
				fr.Set(0, gcassert.Nil)
				for j := 0; j < cfg.churn; j++ {
					n := th.New(node)
					vm.SetRef(n, 0, fr.Get(0))
					fr.Set(0, n)
				}
				if seq%13 == 0 {
					dead := th.New(node)
					fr.Set(1, dead)
					fr.Set(1, gcassert.Nil)
					vm.AssertDead(dead)
				}
				fr.Set(0, gcassert.Nil)
				if cfg.forced > 0 && seq%cfg.forced == 0 {
					vm.Collect()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			vm.Telemetry().OnRecord(nil)

			hist := vm.Telemetry().PauseHistogram()
			if hist.Count() == 0 {
				t.Fatal("run produced no collections; property is vacuous — shrink the heap")
			}
			at := Attribute(rep, log.Events(), 5)

			if got, want := at.Collections, int(hist.Count()); got != want {
				t.Errorf("attribution saw %d collections, pause histogram %d", got, want)
			}
			if got, want := at.ServicePauseNs, hist.Sum().Nanoseconds(); got != want {
				t.Errorf("attributed service pause %d ns != pause histogram sum %d ns (diff %d)",
					got, want, got-want)
			}
			if at.PauseTotalNs != at.ServicePauseNs {
				t.Errorf("pause total %d != service overlap %d: a pause leaked outside every service window",
					at.PauseTotalNs, at.ServicePauseNs)
			}
			// The by-reason split is a partition of the same total.
			var byReason int64
			for _, r := range at.ByReason {
				byReason += r.Ns
			}
			if byReason != at.ServicePauseNs {
				t.Errorf("by-reason sums to %d, want %d", byReason, at.ServicePauseNs)
			}
			// Kind blame can only attribute measured slow-path time.
			var byKind int64
			for _, k := range at.ByKind {
				byKind += k.Ns
			}
			if byKind > at.ServicePauseNs {
				t.Errorf("by-kind sums to %d > attributed pause %d", byKind, at.ServicePauseNs)
			}
			// Per-request decomposition must bound each request's latency.
			for _, s := range at.Slowest {
				if s.ServicePauseNs > s.ServiceNs() {
					t.Errorf("request %d: service pause %d > service time %d", s.Seq, s.ServicePauseNs, s.ServiceNs())
				}
				if s.QueuePauseNs > s.QueueNs() {
					t.Errorf("request %d: queue pause %d > queue wait %d", s.Seq, s.QueuePauseNs, s.QueueNs())
				}
			}
		})
	}
}

// TestEventLogLossless pins the tap's reason to exist: every collection is
// retained even when the telemetry ring has long since evicted it.
func TestEventLogLossless(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes: 8 << 20, Infrastructure: true,
		Telemetry: true, TelemetryRingSize: 4, // tiny ring: evicts fast
	})
	log := NewEventLog(vm.Telemetry())
	const collections = 32
	for i := 0; i < collections; i++ {
		vm.Collect()
	}
	vm.Telemetry().OnRecord(nil)
	if got := len(log.Events()); got != collections {
		t.Fatalf("event log holds %d events, want %d (ring only holds 4)", got, collections)
	}
	if got := len(vm.Telemetry().Events()); got != 4 {
		t.Fatalf("ring snapshot holds %d, want 4 — the premise of the test", got)
	}
	for i, ev := range log.Events() {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: tap out of order or lossy", i, ev.Seq)
		}
	}
}

func ExampleWriteReport() {
	// A capture-off run reports only pacing.
	rep := &Report{RPS: 100, Requests: 3, StartUnixNs: 0, EndUnixNs: 30_000_000}
	var at *Attribution
	WriteReport(exampleWriter{}, rep, at)
	fmt.Println("ok")
	// Output: ok
}

type exampleWriter struct{}

func (exampleWriter) Write(p []byte) (int, error) { return len(p), nil }
