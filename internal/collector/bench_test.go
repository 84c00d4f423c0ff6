package collector

import (
	"testing"

	"gcassert/internal/heap"
)

// BenchmarkMarkRegimes times the mark on the two layouts the regime probe
// tells apart, in Base and Infrastructure mode, and fails if the probe
// chose the other regime:
//
//   - tree: eight trees of depth 5 and fan-out 6, each node with a child
//     array and a word array, allocated depth first — the order the marker
//     traces them, as the DaCapo-shaped workloads build theirs (161 736
//     objects). The hardware streams this trace; it must stay sequential.
//   - forest: 4 096 components of 8–24 nodes of 512 bytes, allocated
//     together and shuffled within windows of 1 024, so that every scan
//     misses the cache, as in the benchmark's gc-trace workload. It must
//     interleave.
//
// mark-ms/gc is the mark phase's time per collection.
func BenchmarkMarkRegimes(b *testing.B) {
	for _, shape := range []struct {
		name       string
		build      func(*heap.Space, *heap.Registry) []heap.Addr
		interleave bool
	}{{"tree", buildTrees, false}, {"forest", buildForest, true}} {
		for _, infra := range []bool{false, true} {
			name := shape.name + "/Base"
			if infra {
				name = shape.name + "/Infrastructure"
			}
			b.Run(name, func(b *testing.B) {
				reg := heap.NewRegistry()
				s := heap.NewSpace(reg, 64<<20)
				c := New(s, &sliceRoots{slots: shape.build(s, reg)}, nil, infra)
				c.Collect("warm")
				// Only the interleaved regime runs a lane other than lane 0.
				if got := cap(c.lanes[1].stack) > 0; got != shape.interleave {
					b.Fatalf("interleaved=%v, want %v", got, shape.interleave)
				}
				b.ResetTimer()
				var ns int64
				for i := 0; i < b.N; i++ {
					ns += c.Collect("bench").MarkTime.Nanoseconds()
				}
				b.ReportMetric(float64(ns)/float64(b.N)/1e6, "mark-ms/gc")
			})
		}
	}
}

// buildTrees allocates BenchmarkMarkRegimes' trees and returns their roots.
func buildTrees(s *heap.Space, reg *heap.Registry) []heap.Addr {
	node := reg.Define("FONode", heap.Field{Name: "children", Ref: true}, heap.Field{Name: "props", Ref: true}, heap.Field{Name: "width"})
	var build func(depth int) heap.Addr
	build = func(depth int) heap.Addr {
		n := mustAlloc(s, node, 0)
		s.SetRef(n, 1, mustAlloc(s, heap.TWordArray, 4))
		if depth > 0 {
			kids := mustAlloc(s, heap.TRefArray, 6)
			s.SetRef(n, 0, kids)
			for i := 0; i < 6; i++ {
				s.SetRefAt(kids, i, build(depth-1))
			}
		}
		return n
	}
	var roots []heap.Addr
	for i := 0; i < 8; i++ {
		roots = append(roots, build(5))
	}
	return roots
}

// buildForest allocates BenchmarkMarkRegimes' forest and returns its roots:
// a table of the components and a pool of 1 024 shared leaves. A component
// is a chain, a chain with a back edge to its last node, or a binary tree.
func buildForest(s *heap.Space, reg *heap.Registry) []heap.Addr {
	fields := []heap.Field{{Name: "a", Ref: true}, {Name: "b", Ref: true}, {Name: "leaf", Ref: true}}
	for i := 0; i < 60; i++ {
		fields = append(fields, heap.Field{Name: "p" + string(rune('A'+i%26)) + string(rune('a'+i/26))})
	}
	node := reg.Define("N", fields...)
	leaf := reg.Define("L", heap.Field{Name: "v"})
	rng := uint64(12345)
	next := func(n int) int { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return int(rng % uint64(n)) }
	pool := mustAlloc(s, heap.TRefArray, 1024)
	for i := 0; i < 1024; i++ {
		s.SetRefAt(pool, i, mustAlloc(s, leaf, 0))
	}
	table := mustAlloc(s, heap.TRefArray, 4096)
	sizes, total := make([]int, 4096), 0
	for i := range sizes {
		sizes[i] = 8 + next(17)
		total += sizes[i]
	}
	nodes := make([]heap.Addr, total)
	for i := range nodes {
		nodes[i] = mustAlloc(s, node, 0)
	}
	for lo := 0; lo < total; lo += 1024 {
		w := nodes[lo:min(lo+1024, total)]
		for i := len(w) - 1; i > 0; i-- {
			j := next(i + 1)
			w[i], w[j] = w[j], w[i]
		}
	}
	for ci, n := range sizes {
		comp := nodes[:n]
		nodes = nodes[n:]
		kind := next(4)
		for i, a := range comp {
			s.SetRef(a, 2, s.RefAt(pool, next(1024)))
			switch {
			case kind == 1:
				if l := 2*i + 1; l < n {
					s.SetRef(a, 0, comp[l])
				}
				if r := 2*i + 2; r < n {
					s.SetRef(a, 1, comp[r])
				}
			case i+1 < n:
				s.SetRef(a, 0, comp[i+1])
				if kind == 3 {
					s.SetRef(a, 1, comp[n-1])
				}
			}
		}
		s.SetRefAt(table, ci, comp[0])
	}
	return []heap.Addr{table, pool}
}

func mustAlloc(s *heap.Space, t heap.TypeID, n int) heap.Addr {
	a, ok := s.Allocate(t, n)
	if !ok {
		panic("heap exhausted")
	}
	return a
}
