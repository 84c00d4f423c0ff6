package gcassert_test

// Tests for the cost-attribution and heap-pressure layer: per-kind check
// counts that match the engine's own counters, the
// trigger explainer's wording across collection reasons, the mutator-side
// pressure stats, and the live SSE stream under concurrent collections.

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcassert"
	"gcassert/internal/core"
)

// TestAttributionCheckCountsAreExact drives a deterministic randomized
// workload mixing all four assertion kinds with cost attribution on. Work
// counts are exact, only the times are measurements: every collection's
// per-kind check count must equal the engine's own counter delta across
// that collection, in the kind's unit, and every collection must carry a
// trigger explanation and non-negative attributed times.
func TestAttributionCheckCountsAreExact(t *testing.T) {
	var total [core.NumKinds]uint64
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		vm := gcassert.New(gcassert.Options{
			HeapBytes:      4 << 20,
			Infrastructure: true,
			Reporter:       &gcassert.CollectingReporter{},
			Telemetry:      true,
		})
		node := vm.Define("Node",
			gcassert.Field{Name: "a", Ref: true},
			gcassert.Field{Name: "b", Ref: true},
			gcassert.Field{Name: "v"})
		vm.AssertInstances(node, 150)
		th := vm.NewThread("main")
		fr := th.Push(24)

		for round := 0; round < 5; round++ {
			for i := 0; i < 200; i++ {
				a := th.New(node)
				fr.Set(rng.Intn(24), a)
				for j := 0; j < 24; j++ {
					src := fr.Get(j)
					if src != gcassert.Nil && rng.Intn(8) == 0 && vm.Space().TypeOf(src) == node {
						vm.SetRef(src, rng.Intn(2), a)
					}
				}
			}
			for j := 0; j < 24; j++ {
				a := fr.Get(j)
				if a == gcassert.Nil {
					continue
				}
				switch rng.Intn(6) {
				case 0:
					vm.AssertDead(a)
					if rng.Intn(2) == 0 {
						fr.Set(j, gcassert.Nil)
					}
				case 1:
					vm.AssertUnshared(a)
				case 2:
					if o := fr.Get(rng.Intn(24)); o != gcassert.Nil && o != a {
						vm.AssertOwnedBy(o, a)
					}
				}
			}
			for j := 0; j < 24; j++ {
				if rng.Intn(3) == 0 {
					fr.Set(j, gcassert.Nil)
				}
			}
			before := vm.AssertionStats()
			col := vm.Collect()
			after := vm.AssertionStats()
			if col.Trigger.Why == "" {
				t.Fatalf("seed %d round %d: collection has no trigger explanation", seed, round)
			}
			want := core.CheckDeltas(before, after)
			if len(col.AssertCost) != core.NumKinds {
				t.Fatalf("seed %d round %d: %d cost rows, want %d", seed, round, len(col.AssertCost), core.NumKinds)
			}
			for k, c := range col.AssertCost {
				if c.Ns < 0 {
					t.Errorf("seed %d round %d: kind %s has negative attributed time %d",
						seed, round, c.Kind, c.Ns)
				}
				total[k] += c.Checks
				if name := core.Kind(k).String(); c.Kind != name || c.Checks != want[k] {
					t.Errorf("seed %d round %d: row %d is %s with %d checks, engine counted %d for %s",
						seed, round, k, c.Kind, c.Checks, want[k], name)
				}
			}
		}
	}
	for _, k := range []core.Kind{core.KindDead, core.KindInstances, core.KindUnshared, core.KindOwnedBy} {
		if total[k] == 0 {
			t.Errorf("the workload never performed a %s check", k)
		}
	}
}

// TestTriggerExplainerForced pins the explicit-Collect wording and the
// occupancy/rate fields stamped on a forced collection.
func TestTriggerExplainerForced(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20, Infrastructure: true, Telemetry: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	buildList(vm, th, fr, node, 1_000)
	col := vm.Collect()
	if !strings.Contains(col.Trigger.Why, "explicit Collect") {
		t.Fatalf("forced trigger = %q, want explicit-Collect wording", col.Trigger.Why)
	}
	if col.Trigger.OccupancyPct <= 0 || col.Trigger.OccupancyPct > 100 {
		t.Fatalf("occupancy %.1f%%, want in (0, 100]", col.Trigger.OccupancyPct)
	}
	if col.Trigger.ByThread != "main" {
		t.Fatalf("dominant thread %q, want main", col.Trigger.ByThread)
	}
}

// TestTriggerExplainerExhaustion drives the heap to alloc-failure and
// checks the exhaustion wording, the near-full occupancy, and the dominant
// allocating thread.
func TestTriggerExplainerExhaustion(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes: 1 << 20, Infrastructure: true,
		Telemetry: true,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	th.Push(1)
	for vm.GCStats().Collections == 0 {
		th.New(node) // unrooted garbage: exhaust, collect, continue
	}
	var hit bool
	for _, ev := range vm.Telemetry().Events() {
		if ev.Reason != string(gcassert.ReasonAllocFailure) {
			continue
		}
		hit = true
		if !strings.Contains(ev.Trigger, "heap exhausted") {
			t.Fatalf("exhaustion trigger = %q, want heap-exhausted wording", ev.Trigger)
		}
		if ev.OccupancyPct < 50 {
			t.Fatalf("occupancy at exhaustion = %.1f%%, want near full", ev.OccupancyPct)
		}
		if ev.TriggerThread != "main" {
			t.Fatalf("dominant thread %q, want main", ev.TriggerThread)
		}
	}
	if !hit {
		t.Fatal("no alloc-failure event recorded")
	}
}

// TestPressureStats checks the mutator-side snapshot: per-thread totals,
// the occupancy timeline, and the allocation-rate EWMA.
func TestPressureStats(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20, Infrastructure: true, Telemetry: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	buildList(vm, th, fr, node, 500)
	vm.Collect()
	buildList(vm, th, fr, node, 500)
	vm.Collect()

	pr, ok := vm.Pressure()
	if !ok {
		t.Fatal("Pressure() not available on an attribution-enabled runtime")
	}
	if len(pr.Occupancy) < 2 {
		t.Fatalf("%d occupancy samples, want >= 2 (one per collection)", len(pr.Occupancy))
	}
	for _, s := range pr.Occupancy {
		if s.Pct < 0 || s.Pct > 100 || s.UnixNs == 0 {
			t.Fatalf("bad occupancy sample %+v", s)
		}
	}
	if pr.AllocRateWps < 0 {
		t.Fatalf("negative alloc-rate EWMA %f", pr.AllocRateWps)
	}
	var main *gcassert.ThreadAllocStats
	for i := range pr.Threads {
		if pr.Threads[i].Name == "main" {
			main = &pr.Threads[i]
		}
	}
	if main == nil || main.Objects < 1000 || main.Words == 0 {
		t.Fatalf("per-thread stats %+v, want main with >= 1000 objects", pr.Threads)
	}
}

// TestLiveStreamUnderCollections exercises the SSE endpoint against a
// runtime collecting concurrently with the stream reader (run under -race
// in CI): every collection must arrive as a well-formed frame carrying the
// trigger explanation and the cost rows.
func TestLiveStreamUnderCollections(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes: 16 << 20, Infrastructure: true,
		Telemetry: true,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	head := buildList(vm, th, fr, node, 10_000)
	vm.AssertUnshared(head)

	srv := httptest.NewServer(vm.TelemetryHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/gcassert/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	frames := make(chan gcassert.GCEvent, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev gcassert.GCEvent
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				frames <- ev
			}
		}
		close(frames)
	}()

	const n = 10
	for i := 0; i < n; i++ {
		vm.Collect()
	}
	var lastSeq uint64
	for i := 0; i < n; i++ {
		select {
		case ev, open := <-frames:
			if !open {
				t.Fatalf("stream closed after %d of %d frames", i, n)
			}
			if i > 0 && ev.Seq <= lastSeq {
				t.Fatalf("frame %d: seq %d not increasing past %d", i, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Trigger == "" {
				t.Fatalf("frame %d has no trigger explanation", i)
			}
			if len(ev.Costs) == 0 {
				t.Fatalf("frame %d has no cost rows", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for frame %d of %d", i, n)
		}
	}
}
