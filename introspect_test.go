package gcassert_test

import (
	"strconv"
	"strings"
	"testing"

	"gcassert"
	"gcassert/internal/collector"
)

// TestLeakSuspectsSamplePaths: on a seeded leak, every leak report carries
// a reachable sample instance of its type, and its path re-walks edge by
// edge: the named root holds the first step, each step's field holds the
// next step's object, and the last step is the sample.
func TestLeakSuspectsSamplePaths(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 1 << 20, Infrastructure: true, Introspection: true})
	churnWithLeak(t, vm)
	growLeak(vm, 4)
	reports := vm.LeakSuspects(0, 5)
	if len(reports) == 0 || reports[0].TypeName != "Orderline" {
		t.Fatalf("the seeded leak is not the top suspect: %+v", reports)
	}
	for _, rep := range reports {
		if rep.Sample == gcassert.Nil || !vm.IsReachable(rep.Sample) {
			t.Errorf("%s: sample %#x is not a reachable instance", rep.TypeName, uint32(rep.Sample))
			continue
		}
		if got := vm.TypeName(rep.Sample); got != rep.TypeName {
			t.Errorf("%s: sample is a %s", rep.TypeName, got)
		}
		path := rep.Path
		if len(path) == 0 || path[len(path)-1].Addr != rep.Sample {
			t.Errorf("%s: path does not end at the sample: %+v", rep.TypeName, path)
			continue
		}
		if rep.TypeName == "Orderline" && len(path) < 2 {
			t.Errorf("the leaked list's sample has a one-step path, so no edge is re-walked: %+v", path)
		}
		held := false
		vm.RootScanner().Roots(func(r collector.Root) {
			held = held || (r.Desc == rep.Root && *r.Slot == path[0].Addr)
		})
		if !held {
			t.Errorf("%s: root %q does not hold the path's first object %#x", rep.TypeName, rep.Root, uint32(path[0].Addr))
		}
		for k := 0; k+1 < len(path); k++ {
			if next := fieldValue(vm, path[k].Addr, path[k].Field); next != path[k+1].Addr {
				t.Errorf("%s: step %d: %s.%s holds %#x, the path says %#x",
					rep.TypeName, k, path[k].TypeName, path[k].Field, uint32(next), uint32(path[k+1].Addr))
				break
			}
		}
	}
}

// fieldValue reads the reference a path step's field names: "[i]" is an
// element of a reference array, anything else a field of the object's type.
func fieldValue(vm *gcassert.Runtime, a gcassert.Ref, field string) gcassert.Ref {
	if i, ok := strings.CutPrefix(field, "["); ok {
		n, err := strconv.Atoi(strings.TrimSuffix(i, "]"))
		if err != nil {
			return gcassert.Nil
		}
		return vm.RefAt(a, n)
	}
	slot := vm.FieldIndex(vm.Space().TypeOf(a), field)
	if slot < 0 {
		return gcassert.Nil
	}
	return vm.GetRef(a, slot)
}
