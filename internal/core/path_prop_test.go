package core_test

// Path-validity property (ROADMAP aim 3: "every violation's reported path is
// a real path in the heap"). A seeded random mutator allocates objects and
// arrays, rewires them, registers a random mix of all four assertion kinds
// on rooted objects — some hold, some trip — drops roots and collects. The
// reporter checks each violation *at report time*, inside the collection,
// while the heap is exactly what the tracer is looking at: every step of
// Path is an edge the heap holds under the field the step names, the path
// ends at the offending object, and the named root holds Path[0]. The same
// seed must report the same violations, paths included, twice.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heap"
	"gcassert/internal/rt"
)

// pathChecker is the re-walking reporter. It only reads the heap.
type pathChecker struct {
	t    *testing.T
	vm   *rt.Runtime
	sigs []string
	seen [core.NumKinds]int
}

func (p *pathChecker) Report(v *core.Violation) {
	t, s := p.t, p.vm.Space()
	p.seen[v.Kind]++
	p.sigs = append(p.sigs, fmt.Sprintf("%s|gc%d|%s|%#x|%s|%v", v.Kind, v.GC, v.TypeName, uint32(v.Object), v.Root, v.Path))
	if v.Kind == core.KindInstances {
		// No path by design: the offending paths may already be traced.
		if v.Root != "" || len(v.Path) != 0 {
			t.Errorf("assert-instances carries a path:\n%s", v)
		}
		return
	}
	n := len(v.Path)
	if n == 0 || v.Path[n-1].Addr != v.Object || v.Path[n-1].Field != "" {
		t.Fatalf("path does not end at the object %#x:\n%s", uint32(v.Object), v)
	}
	for i, step := range v.Path {
		if !s.Contains(step.Addr) || s.TypeName(step.Addr) != step.TypeName {
			t.Fatalf("step %d: %#x is not a live %s:\n%s", i, uint32(step.Addr), step.TypeName, v)
		}
		if i+1 == n {
			break
		}
		ti := s.Registry().Info(s.TypeOf(step.Addr))
		held := false
		s.ForEachRef(step.Addr, func(slot int, tgt heap.Addr) {
			held = held || (tgt == v.Path[i+1].Addr && ti.FieldName(slot) == step.Field)
		})
		if !held {
			t.Fatalf("step %d: %#x.%s does not hold %#x:\n%s", i, uint32(step.Addr), step.Field, uint32(v.Path[i+1].Addr), v)
		}
	}
	if !p.rootHolds(v.Root, v.Path[0].Addr) {
		t.Fatalf("root %q does not hold %#x:\n%s", v.Root, uint32(v.Path[0].Addr), v)
	}
}

// rootHolds reports whether the named root leads to first. A root-scan
// report names a frame or global, one of whose slots must hold first. An
// ownership pre-phase report names the owner being scanned; its path starts
// at the owner or at an ownee that scan queued, so first must be reachable
// from the owner.
func (p *pathChecker) rootHolds(root string, first heap.Addr) bool {
	if !strings.HasPrefix(root, "owner ") {
		held := false
		p.vm.RootScanner().Roots(func(r collector.Root) {
			held = held || (r.Desc == root && *r.Slot == first)
		})
		return held
	}
	var a uint32
	if _, err := fmt.Sscanf(root[strings.LastIndex(root, "@")+1:], "0x%x", &a); err != nil {
		return false
	}
	owner, s := heap.Addr(a), p.vm.Space()
	seen := map[heap.Addr]bool{owner: true}
	for work := []heap.Addr{owner}; len(work) > 0; {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if a == first {
			return true
		}
		s.ForEachRef(a, func(_ int, tgt heap.Addr) {
			if !seen[tgt] {
				seen[tgt] = true
				work = append(work, tgt)
			}
		})
	}
	return false
}

// runPathWorkload drives one runtime through the seeded workload and
// returns its checker, which holds the violation signatures in report order.
func runPathWorkload(t *testing.T, seed int64) *pathChecker {
	t.Helper()
	const slots = 24
	rng := rand.New(rand.NewSource(seed))
	chk := &pathChecker{t: t}
	vm := rt.New(rt.Config{HeapBytes: 4 << 20, Infrastructure: true, Reporter: chk})
	chk.vm = vm
	s := vm.Space()
	node := vm.Define("Node",
		heap.Field{Name: "a", Ref: true},
		heap.Field{Name: "b", Ref: true},
		heap.Field{Name: "v"})
	vm.AssertInstances(node, 12) // trips in some rounds, holds in others
	th := vm.NewThread("main")
	fr := th.Push(slots)

	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			var a heap.Addr
			switch rng.Intn(3) {
			case 0:
				a = th.New(node)
			case 1:
				a = th.NewArray(heap.TRefArray, rng.Intn(12))
			default:
				a = th.NewArray(heap.TWordArray, rng.Intn(32))
			}
			fr.Set(rng.Intn(slots), a)
			for j := 0; j < slots; j++ {
				src := fr.Get(j)
				if src == heap.Nil || rng.Intn(8) != 0 {
					continue
				}
				switch s.TypeOf(src) {
				case node:
					s.SetRef(src, rng.Intn(2), a)
				case heap.TRefArray:
					if n := s.ArrayLen(src); n > 0 {
						s.SetRefAt(src, rng.Intn(n), a)
					}
				}
			}
		}
		for j := 0; j < slots; j++ {
			a := fr.Get(j)
			if a == heap.Nil {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				vm.AssertDead(a)
				if rng.Intn(2) == 0 {
					fr.Set(j, heap.Nil) // honest: may actually die
				}
			case 1:
				vm.AssertUnshared(a)
			case 2:
				if o := fr.Get(rng.Intn(slots)); o != heap.Nil && o != a {
					vm.AssertOwnedBy(o, a)
				}
			}
		}
		for j := 0; j < slots; j++ {
			if rng.Intn(3) == 0 {
				fr.Set(j, heap.Nil)
			}
		}
		vm.Collect()
	}
	return chk
}

func TestPropertyReportedPathsRewalk(t *testing.T) {
	var seen [core.NumKinds]int
	for seed := int64(1); seed <= 12; seed++ {
		first := runPathWorkload(t, seed)
		again := runPathWorkload(t, seed)
		if len(first.sigs) != len(again.sigs) {
			t.Fatalf("seed %d: %d violations, then %d", seed, len(first.sigs), len(again.sigs))
		}
		for i := range first.sigs {
			if first.sigs[i] != again.sigs[i] {
				t.Fatalf("seed %d: violation %d differs between runs:\n%s\n%s", seed, i, first.sigs[i], again.sigs[i])
			}
		}
		for k, n := range first.seen {
			seen[k] += n
		}
	}
	t.Logf("violations re-walked by kind: %v", seen)
	// The generator must keep tripping every kind it mixes.
	for _, k := range []core.Kind{core.KindDead, core.KindInstances, core.KindUnshared, core.KindOwnedBy} {
		if seen[k] == 0 {
			t.Errorf("no %s violation was ever reported", k)
		}
	}
}
