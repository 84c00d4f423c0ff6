package workloads

import (
	"fmt"
	"testing"

	"gcassert"
	"gcassert/internal/bench"
)

// TestAllWorkloadsRunBase executes one iteration of every workload on the
// Base configuration: no panics, and at least one object allocated.
func TestAllWorkloadsRunBase(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			vm := gcassert.New(gcassert.Options{HeapBytes: w.Heap})
			run := w.New(vm, false)
			run(0)
			if vm.HeapStats().ObjectsAllocated == 0 {
				t.Error("workload allocated nothing")
			}
		})
	}
}

// TestAllWorkloadsRunInfra executes two iterations with the assertion
// infrastructure enabled and a forced collection at the end; there must be
// no violations, since no assertions are registered.
func TestAllWorkloadsRunInfra(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep := &gcassert.CollectingReporter{}
			vm := gcassert.New(gcassert.Options{HeapBytes: w.Heap, Infrastructure: true, Reporter: rep})
			run := w.New(vm, false)
			run(0)
			run(1)
			vm.Collect()
			if rep.Len() != 0 {
				t.Fatalf("violations without assertions: %v", rep.Violations())
			}
		})
	}
}

// TestAssertingWorkloadsPass runs the WithAssertions variants of _209_db and
// pseudojbb (the repaired programs): thousands of assertions, none of which
// may fire.
func TestAssertingWorkloadsPass(t *testing.T) {
	for _, w := range Asserting() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep := &gcassert.CollectingReporter{}
			vm := gcassert.New(gcassert.Options{HeapBytes: w.Heap, Infrastructure: true, Reporter: rep})
			run := w.New(vm, true)
			run(0)
			run(1)
			vm.Collect()
			if rep.Len() != 0 {
				vs := rep.Violations()
				max := len(vs)
				if max > 3 {
					max = 3
				}
				t.Fatalf("repaired program must not violate; got %d, first: %v", len(vs), vs[:max])
			}
			st := vm.AssertionStats()
			if st.DeadAsserted == 0 || st.OwnedPairsAsserted == 0 {
				t.Errorf("expected assertion activity, got %+v", st)
			}
		})
	}
}

// TestCensusLiveWordsMatchHeap runs each asserting workload with telemetry
// and introspection on, collects, and requires the census's live-word total
// to equal the collector's own live-word accounting at that instant — with
// the workload's assertions off and on, since the ownership pre-phase marks
// part of the live set.
func TestCensusLiveWordsMatchHeap(t *testing.T) {
	for _, w := range Asserting() {
		for _, asserts := range []bool{false, true} {
			w, asserts := w, asserts
			t.Run(fmt.Sprintf("%s/asserts=%v", w.Name, asserts), func(t *testing.T) {
				vm := gcassert.New(gcassert.Options{HeapBytes: w.Heap, Infrastructure: asserts,
					Telemetry: true, Introspection: true})
				run := w.New(vm, asserts)
				run(0)
				vm.Collect()
				snap, ok := vm.LatestCensus()
				if !ok {
					t.Fatal("no census after Collect")
				}
				if live := vm.HeapStats().LiveWords; snap.TotalCellWords != live {
					t.Errorf("census counts %d live words, the heap %d", snap.TotalCellWords, live)
				}
			})
		}
	}
}

// TestHarnessCompare smoke-tests the harness plumbing on one workload.
func TestHarnessCompare(t *testing.T) {
	w, err := ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	c := bench.Compare(w, []bench.Mode{bench.Base, bench.Infra, bench.WithAssertions},
		bench.Options{Trials: 1, Iterations: 1})
	for _, m := range []bench.Mode{bench.Base, bench.Infra, bench.WithAssertions} {
		r, ok := c.Results[m]
		if !ok {
			t.Fatalf("missing mode %v", m)
		}
		if r.Total.Mean() <= 0 {
			t.Errorf("%v: nonpositive total time", m)
		}
	}
	if n := c.Normalized(bench.Infra, bench.TotalTime); n <= 0 {
		t.Errorf("normalized infra total = %v", n)
	}
}

// TestByNameUnknown checks the error path.
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("want error for unknown workload")
	}
}
