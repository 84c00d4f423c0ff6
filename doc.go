// Package gcassert is a Go implementation of GC assertions — the system
// interface of Aftandilian & Guyer, "GC Assertions: Using the Garbage
// Collector to Check Heap Properties" (PLDI 2009) — together with the
// managed runtime it needs: a typed heap, a stop-the-world mark-sweep
// collector with path-reconstructing tracing, and mutator threads.
//
// Programmers allocate objects on the managed heap and register assertions
// about them; the garbage collector checks every registered assertion during
// its normal tracing pass, at very low cost, and reports each violation with
// the complete path through the heap from a root to the offending object.
//
// The five assertion forms of the paper are provided:
//
//   - Runtime.AssertDead(p): p must be unreachable at the next collection.
//   - Thread.StartRegion / Thread.AssertAllDead: everything allocated in the
//     bracket must be dead at the next collection (region memory-stability).
//   - Runtime.AssertInstances(T, n): at most n instances of T are live at
//     each collection.
//   - Runtime.AssertUnshared(p): p has at most one incoming pointer.
//   - Runtime.AssertOwnedBy(owner, p): p must not outlive reachability
//     through owner.
//
// A minimal session:
//
//	vm := gcassert.New(gcassert.Options{Infrastructure: true})
//	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
//	th := vm.NewThread("main")
//	fr := th.Push(1)
//	a := th.New(node)
//	fr.Set(0, a)
//	vm.AssertDead(a) // but it is still referenced by fr...
//	vm.Collect()     // ...so the collector reports the retaining path.
//
// Options is the one configuration struct. Infrastructure off is the
// paper's Base configuration; on, it is Infrastructure, and WithAssertions
// once the program registers assertions. The optional observability layers
// (Telemetry, ProvenanceSample, FlightRecorder, Introspection, FleetURL) are
// off by default and free when off. Telemetry carries cost attribution and
// the heap-pressure tracker, and FleetURL turns Introspection on; no other
// layer implies another.
//
// See the examples directory for complete programs, and DESIGN.md /
// EXPERIMENTS.md for how the paper's evaluation is reproduced.
package gcassert
