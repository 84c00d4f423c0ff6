package gcassert_test

// Benchmark harness regenerating the paper's evaluation (one benchmark per
// figure, plus the ablations listed in DESIGN.md). These are testing.B
// views of the same measurements `cmd/gcassert-bench` prints as tables:
//
//	BenchmarkFigure2RunTime       — total & mutator time, Base vs Infrastructure
//	BenchmarkFigure3GCTime        — GC time, Base vs Infrastructure
//	BenchmarkFigure4AssertRunTime — total time with assertions (db, pseudojbb)
//	BenchmarkFigure5AssertGCTime  — GC time with assertions (db, pseudojbb)
//	BenchmarkAblation*            — path tracking, ownee scaling
//
// Every sub-benchmark reports gc-ms/op and mutator-ms/op metrics so the
// figures' ratios can be read directly from `go test -bench`.

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"gcassert"
	"gcassert/internal/bench"
	"gcassert/internal/bench/workloads"
	"gcassert/internal/fleet"
)

// runWorkloadBench measures one workload in one mode under testing.B.
func runWorkloadBench(b *testing.B, w bench.Workload, mode bench.Mode) {
	b.Helper()
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      w.Heap,
		Infrastructure: mode != bench.Base,
	})
	run := w.New(vm, mode == bench.WithAssertions)
	run(0) // warmup iteration, as in the paper's methodology
	gc0 := vm.GCStats().TotalGCTime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i + 1)
	}
	b.StopTimer()
	gcTime := vm.GCStats().TotalGCTime - gc0
	gcMS := float64(gcTime.Milliseconds()) / float64(b.N)
	b.ReportMetric(gcMS, "gc-ms/op")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)-gcMS, "mutator-ms/op")
}

// BenchmarkFigure2RunTime regenerates Figure 2: run-time overhead of the
// assertion infrastructure across the full suite (compare Base vs
// Infrastructure ns/op and mutator-ms/op).
func BenchmarkFigure2RunTime(b *testing.B) {
	for _, w := range workloads.All() {
		for _, mode := range []bench.Mode{bench.Base, bench.Infra} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure3GCTime regenerates Figure 3: GC-time overhead of the
// infrastructure (compare gc-ms/op between modes). It measures a GC-heavy
// subset so the GC signal dominates.
func BenchmarkFigure3GCTime(b *testing.B) {
	for _, name := range []string{"bloat", "fop", "hsqldb", "xalan", "pmd", "pseudojbb"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []bench.Mode{bench.Base, bench.Infra} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure4AssertRunTime regenerates Figure 4: total run time of
// _209_db and pseudojbb with their paper instrumentation, vs Base and
// Infrastructure.
func BenchmarkFigure4AssertRunTime(b *testing.B) {
	for _, w := range workloads.Asserting() {
		for _, mode := range []bench.Mode{bench.Base, bench.Infra, bench.WithAssertions} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure5AssertGCTime regenerates Figure 5: the GC-time view of the
// same runs (read the gc-ms/op metric).
func BenchmarkFigure5AssertGCTime(b *testing.B) {
	for _, w := range workloads.Asserting() {
		for _, mode := range []bench.Mode{bench.Base, bench.WithAssertions} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// buildList allocates a linked list of n nodes rooted in fr slot 0 and
// returns its head.
func buildList(vm *gcassert.Runtime, th *gcassert.Thread, fr *gcassert.Frame, node gcassert.TypeID, n int) gcassert.Ref {
	var head gcassert.Ref
	for i := 0; i < n; i++ {
		nd := th.New(node)
		vm.SetRef(nd, 0, head)
		head = nd
		fr.Set(0, head)
	}
	return head
}

// BenchmarkAblationPathTracking isolates the infrastructure's main cost: a
// full-heap trace of a fixed 200k-object list, with and without the
// path-tracking worklist discipline (Ablation B in DESIGN.md).
func BenchmarkAblationPathTracking(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			buildList(vm, th, fr, node, 200_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
			b.StopTimer()
			st := vm.GCStats()
			b.ReportMetric(float64(st.MarkTime.Nanoseconds())/float64(st.Collections)/1e6, "mark-ms/gc")
		})
	}
}

// BenchmarkAblationOwneeScaling measures the per-GC ownership-phase cost as
// the registered ownee count grows (Ablation C). Membership is one indexed
// load per ownee edge, so the cost is linear in the ownee count where the
// paper's sorted arrays give n log n.
func BenchmarkAblationOwneeScaling(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 50_000, 100_000} {
		n := n
		b.Run(fmt.Sprintf("ownees-%d", n), func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: true})
			owner := vm.Define("Owner", gcassert.Field{Name: "elems", Ref: true})
			elem := vm.Define("Elem", gcassert.Field{Name: "data", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			o := th.New(owner)
			fr.Set(0, o)
			vm.SetRef(o, 0, th.NewArray(gcassert.TRefArray, n))
			arr := vm.GetRef(o, 0)
			for i := 0; i < n; i++ {
				e := th.New(elem)
				vm.SetRefAt(arr, i, e)
				vm.AssertOwnedBy(o, e)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
			b.StopTimer()
			st, gc := vm.AssertionStats(), vm.GCStats()
			b.ReportMetric(float64(st.OwneesChecked)/float64(gc.Collections), "ownees/gc")
			b.ReportMetric(float64(gc.OwnershipTime.Nanoseconds())/1e3/float64(gc.Collections), "ownership-us/gc")
		})
	}
}

// BenchmarkLayersOff pins what an optional layer costs when it is off, as
// it is by default: nothing. Each row is one layer, in both trace
// configurations, and asserts before timing full-heap collections of a
// fixed 200k-object list that
//
//   - an allocation makes 0 host allocations,
//   - a collection makes 0,
//   - the layer's accessor reports it off.
//
// so `go test -bench BenchmarkLayersOff` fails loudly on a regression.
// BenchmarkLayersOn measures each layer on.
func BenchmarkLayersOff(b *testing.B) {
	layers := []struct {
		name string
		off  func(vm *gcassert.Runtime) bool
	}{
		{"Telemetry", func(vm *gcassert.Runtime) bool { _, ok := vm.Pressure(); return vm.Telemetry() == nil && !ok }},
		{"Census", func(vm *gcassert.Runtime) bool { return vm.Census() == nil }},
		{"Provenance", func(vm *gcassert.Runtime) bool { return vm.RegisterAllocSite("bench.go:1: new Node") == 0 }},
		{"FleetExport", func(vm *gcassert.Runtime) bool { return vm.FleetExporter() == nil }},
		{"Flight", func(vm *gcassert.Runtime) bool { return vm.Flight() == nil }},
	}
	for _, infra := range []bool{false, true} {
		mode := "Base"
		if infra {
			mode = "Infrastructure"
		}
		for _, l := range layers {
			infra, l := infra, l
			b.Run(mode+"/"+l.name, func(b *testing.B) {
				vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Infrastructure: infra})
				node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
				th := vm.NewThread("main")
				fr := th.Push(1)
				fr.Set(0, th.New(node)) // settle lazy size-class growth
				if allocs := testing.AllocsPerRun(1000, func() { fr.Set(0, th.New(node)) }); allocs != 0 {
					b.Fatalf("%s off: an allocation makes %.2f host allocations, want 0", l.name, allocs)
				}
				fr.Set(0, gcassert.Nil)
				buildList(vm, th, fr, node, 200_000)
				vm.Collect() // settle one-time lazy growth before measuring
				if allocs := testing.AllocsPerRun(3, func() { vm.Collect() }); allocs != 0 {
					b.Fatalf("%s off: a collection makes %.0f host allocations, want 0", l.name, allocs)
				}
				if !l.off(vm) {
					b.Fatalf("%s reports itself on in a runtime that did not enable it", l.name)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vm.Collect()
				}
			})
		}
	}
}

// BenchmarkLayersOn is BenchmarkLayersOff's on column: the same full-heap
// collection of a fixed 200k-object list, in Infrastructure mode with one
// assert-unshared on the list head, with one optional layer on per row. The
// list is allocated at a registered site, so with provenance on every node
// carries one. Each row checks, after timing, that its layer is on and did
// its work on the last collection; ns/op and allocs/op are per collection.
// The fleet row ships to a collector in the same process.
func BenchmarkLayersOn(b *testing.B) {
	store, err := fleet.OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	defer ts.Close()

	const n = 200_000
	layers := []struct {
		name string
		opts gcassert.Options
		// on reports why the layer is not on and working, or "".
		on func(vm *gcassert.Runtime, head gcassert.Ref, col gcassert.Collection) string
	}{
		{"Telemetry", gcassert.Options{Telemetry: true}, func(vm *gcassert.Runtime, _ gcassert.Ref, col gcassert.Collection) string {
			if _, ok := vm.Pressure(); vm.Telemetry() == nil || !ok {
				return "no tracer or no pressure tracker"
			}
			if len(col.AssertCost) == 0 || col.Trigger.Why == "" {
				return "the collection carries no per-kind costs or no trigger explanation"
			}
			return ""
		}},
		{"Provenance", gcassert.Options{ProvenanceSample: 1}, func(vm *gcassert.Runtime, head gcassert.Ref, _ gcassert.Collection) string {
			if _, desc := vm.AllocSite(head); desc == "" {
				return "the list head has no recorded allocation site"
			}
			return ""
		}},
		{"Census", gcassert.Options{Introspection: true}, func(vm *gcassert.Runtime, _ gcassert.Ref, col gcassert.Collection) string {
			if snap, ok := vm.LatestCensus(); !ok || snap.GC != col.Seq || snap.TotalObjects != n {
				return "no census snapshot of the last collection covering the list"
			}
			return ""
		}},
		{"FleetExport", gcassert.Options{FleetURL: ts.URL, InstanceID: "bench"}, func(vm *gcassert.Runtime, _ gcassert.Ref, _ gcassert.Collection) string {
			if fx := vm.FleetExporter(); fx == nil || fx.Stats().Enqueued == 0 {
				return "no exporter, or it enqueued nothing"
			}
			return ""
		}},
		{"Flight", gcassert.Options{FlightRecorder: true}, func(vm *gcassert.Runtime, _ gcassert.Ref, col gcassert.Collection) string {
			cycles := vm.Flight().Cycles()
			if len(cycles) == 0 || cycles[len(cycles)-1].GC != col.Seq {
				return "the flight recorder did not record the last collection"
			}
			return ""
		}},
	}
	for _, l := range layers {
		l := l
		b.Run(l.name, func(b *testing.B) {
			opts := l.opts
			opts.HeapBytes, opts.Infrastructure = 32<<20, true
			vm := gcassert.New(opts)
			defer vm.CloseFleet()
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			site := vm.RegisterAllocSite("bench.go:1: new Node")
			var head gcassert.Ref
			for i := 0; i < n; i++ {
				nd := th.NewAt(node, site)
				vm.SetRef(nd, 0, head)
				head = nd
				fr.Set(0, head)
			}
			vm.AssertUnshared(head)
			vm.Collect() // settle one-time lazy growth before measuring
			b.ReportAllocs()
			b.ResetTimer()
			var col gcassert.Collection
			for i := 0; i < b.N; i++ {
				col = vm.Collect()
			}
			b.StopTimer()
			if why := l.on(vm, head, col); why != "" {
				b.Fatalf("%s on: %s", l.name, why)
			}
		})
	}
}

// BenchmarkMicroAlloc measures the allocation fast path.
func BenchmarkMicroAlloc(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Set(0, th.New(node))
		if i%10_000 == 0 {
			fr.Set(0, gcassert.Nil)
		}
	}
}

// BenchmarkMicroAssertDead measures the registration cost of assert-dead
// (one header-bit store, per the paper's zero-metadata design).
func BenchmarkMicroAssertDead(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 16 << 20, Infrastructure: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	o := th.New(node)
	fr.Set(0, o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.AssertDead(o)
	}
}

// BenchmarkMicroAssertOwnedBy measures ownership registration once the pair
// exists (two liveness checks and one side-table load), the dominant case
// for a program that re-asserts as it inserts; see EXPERIMENTS.md for the
// first-registration figure.
func BenchmarkMicroAssertOwnedBy(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: true})
	owner := vm.Define("Owner", gcassert.Field{Name: "elems", Ref: true})
	elem := vm.Define("Elem", gcassert.Field{Name: "data", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(2)
	o := th.New(owner)
	fr.Set(0, o)
	const pool = 1 << 16
	vm.SetRef(o, 0, th.NewArray(gcassert.TRefArray, pool))
	arr := vm.GetRef(o, 0)
	for i := 0; i < pool; i++ {
		e := th.New(elem)
		vm.SetRefAt(arr, i, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.AssertOwnedBy(o, vm.RefAt(arr, i%pool))
	}
}
