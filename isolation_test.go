package gcassert_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gcassert"
)

// TestConcurrentRuntimesShareNothing is the instance-scoping audit as a
// test: two runtimes running concurrently (each on its own goroutine, per
// the single-goroutine discipline) must never observe each other's GC
// events, violations, metrics, or heap state. internal/telemetry and
// internal/rt deliberately hold no package-level mutable state — every
// tracer, registry, ring, and histogram hangs off its runtime — and this
// test, run under -race in CI, is what keeps that true as the packages
// grow: any future global (a shared ring, a default registry, a process-
// wide counter) either trips the race detector or crosses one of the
// assertions below.
func TestConcurrentRuntimesShareNothing(t *testing.T) {
	const cycles = 25

	type world struct {
		vm    *gcassert.Runtime
		viols *gcassert.CollectingReporter
	}
	mk := func() *world {
		w := &world{viols: &gcassert.CollectingReporter{}}
		w.vm = gcassert.New(gcassert.Options{
			HeapBytes:      1 << 20,
			Infrastructure: true,
			Reporter:       w.viols,
			Telemetry:      true,
		})
		return w
	}
	noisy, quiet := mk(), mk()

	var wg sync.WaitGroup
	run := func(w *world, violate bool) {
		defer wg.Done()
		node := w.vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
		th := w.vm.NewThread("churn")
		for i := 0; i < cycles; i++ {
			fr := th.Push(2)
			head := th.New(node)
			fr.Set(0, head)
			for j := 0; j < 64; j++ {
				n := th.New(node)
				w.vm.SetRef(n, 0, head)
				head = n
				fr.Set(0, head)
			}
			if violate {
				// head stays rooted by the frame: assert-dead must trip.
				w.vm.AssertDead(head)
			}
			w.vm.Collect()
			th.Pop()
		}
	}
	wg.Add(2)
	go run(noisy, true)
	go run(quiet, false)
	wg.Wait()

	// Violations stay with the runtime that caused them.
	if got := len(noisy.viols.Violations()); got != cycles {
		t.Errorf("noisy runtime reported %d violations, want %d", got, cycles)
	}
	if got := len(quiet.viols.Violations()); got != 0 {
		t.Errorf("quiet runtime observed %d violations from its neighbor", got)
	}
	if _, total := quiet.vm.Telemetry().Violations(); total != 0 {
		t.Errorf("quiet runtime's telemetry logged %d violations", total)
	}
	if _, total := noisy.vm.Telemetry().Violations(); total == 0 {
		t.Errorf("noisy runtime's telemetry logged nothing")
	}

	// Each tracer's event trace covers exactly its own collections.
	for name, w := range map[string]*world{"noisy": noisy, "quiet": quiet} {
		evs := w.vm.Telemetry().Events()
		if got, want := len(evs), int(w.vm.GCStats().Collections); got != want {
			t.Errorf("%s: %d traced events, %d collections", name, got, want)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i) {
				t.Errorf("%s: event %d has seq %d — foreign events interleaved", name, i, ev.Seq)
			}
		}
	}

	// Metrics registries are per-runtime: the quiet runtime's /metrics must
	// carry zero violations while the noisy one counts all of its own.
	var noisyM, quietM strings.Builder
	noisy.vm.Telemetry().WriteMetrics(&noisyM)
	quiet.vm.Telemetry().WriteMetrics(&quietM)
	if want := fmt.Sprintf("gcassert_violations_logged_total %d", cycles); !strings.Contains(noisyM.String(), want) {
		t.Errorf("noisy metrics missing %q", want)
	}
	if !strings.Contains(quietM.String(), "gcassert_violations_logged_total 0") {
		t.Errorf("quiet metrics counted foreign violations:\n%s", quietM.String())
	}
}
