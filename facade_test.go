package gcassert_test

import (
	"strings"
	"testing"

	"gcassert"
)

func TestLogWriterPrintsFigure1Reports(t *testing.T) {
	var log strings.Builder
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      4 << 20,
		Infrastructure: true,
		LogWriter:      &log,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	fr.Set(0, a)
	vm.AssertDead(a)
	vm.Collect()
	out := log.String()
	if !strings.Contains(out, "Warning: an object that was asserted dead is reachable.") ||
		!strings.Contains(out, "Type: Node") {
		t.Errorf("log output:\n%s", out)
	}
}

func TestLogWriterAndReporterBothFire(t *testing.T) {
	var log strings.Builder
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      4 << 20,
		Infrastructure: true,
		Reporter:       rep,
		LogWriter:      &log,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	fr.Set(0, a)
	vm.AssertDead(a)
	vm.Collect()
	if rep.Len() != 1 || !strings.Contains(log.String(), "Warning") {
		t.Errorf("reporter len=%d, log=%q", rep.Len(), log.String())
	}
}

func TestHaltPolicyViaFacade(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      4 << 20,
		Infrastructure: true,
		Policy:         gcassert.Policy{}.With(gcassert.KindInstances, gcassert.ReactHalt),
	})
	cfgType := vm.Define("Config")
	th := vm.NewThread("main")
	fr := th.Push(2)
	fr.Set(0, th.New(cfgType))
	fr.Set(1, th.New(cfgType))
	vm.AssertInstances(cfgType, 1)
	defer func() {
		he, ok := recover().(*gcassert.HaltError)
		if !ok {
			t.Fatal("expected *HaltError")
		}
		if he.Violation.Kind != gcassert.KindInstances {
			t.Errorf("halted on %v", he.Violation.Kind)
		}
	}()
	vm.Collect()
	t.Fatal("expected halt")
}

// TestOnViolationDecider: the programmatic reaction interface — force-
// reclaim leaked Orders but only log leaked Customers.
func TestOnViolationDecider(t *testing.T) {
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      4 << 20,
		Infrastructure: true,
		Reporter:       rep,
		OnViolation: func(v *gcassert.Violation) gcassert.Reaction {
			if v.Kind == gcassert.KindDead && v.TypeName == "Order" {
				return gcassert.ReactForce
			}
			return gcassert.ReactLog
		},
	})
	order := vm.Define("Order")
	cust := vm.Define("Customer")
	th := vm.NewThread("main")
	fr := th.Push(2)
	o := th.New(order)
	c := th.New(cust)
	fr.Set(0, o)
	fr.Set(1, c)
	vm.AssertDead(o)
	vm.AssertDead(c)
	vm.Collect()
	if rep.Len() != 2 {
		t.Fatalf("violations = %d", rep.Len())
	}
	// The Order was force-reclaimed (its root severed); the Customer only
	// logged and survives.
	if fr.Get(0) != gcassert.Nil {
		t.Error("order root not severed by ReactForce")
	}
	if fr.Get(1) != c || !vm.Space().Contains(c) {
		t.Error("customer should have survived (ReactLog)")
	}
	if st := vm.AssertionStats(); st.DeadVerified != 1 {
		t.Errorf("DeadVerified = %d", st.DeadVerified)
	}
}

func TestAssertionStatsZeroWithoutInfra(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20})
	if st := vm.AssertionStats(); st != (gcassert.AssertStats{}) {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := vm.LiveInstances(gcassert.TRefArray); ok {
		t.Error("LiveInstances without infra")
	}
}

func TestHeapStatsViaFacade(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	th.New(node)
	if st := vm.HeapStats(); st.ObjectsAllocated != 1 {
		t.Errorf("HeapStats = %+v", st)
	}
	if vm.TypeName(gcassert.Nil) == "" { // Nil has a diagnostic name via header 0
		t.Log("nil type name empty (fine)")
	}
}

func TestScalarAndArrayFacadeAccessors(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20})
	node := vm.Define("Node",
		gcassert.Field{Name: "next", Ref: true},
		gcassert.Field{Name: "v", Ref: false})
	th := vm.NewThread("main")
	fr := th.Push(2)
	a := th.New(node)
	fr.Set(0, a)
	vm.SetScalar(a, 1, 99)
	if vm.GetScalar(a, 1) != 99 {
		t.Error("scalar roundtrip")
	}
	arr := th.NewArray(gcassert.TWordArray, 4)
	fr.Set(1, arr)
	vm.SetWordAt(arr, 2, 7)
	if vm.WordAt(arr, 2) != 7 || vm.ArrayLen(arr) != 4 {
		t.Error("word array roundtrip")
	}
	if vm.TypeName(a) != "Node" {
		t.Error("TypeName")
	}
	if vm.FieldIndex(node, "v") != 1 {
		t.Error("FieldIndex")
	}
}

// TestUnsharedPathPointsAtSecondParent checks the facade-visible unshared
// report names the second discovered path, per §2.7.
func TestUnsharedPathSecondPath(t *testing.T) {
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{HeapBytes: 4 << 20, Infrastructure: true, Reporter: rep})
	node := vm.Define("Node",
		gcassert.Field{Name: "a", Ref: true},
		gcassert.Field{Name: "b", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(2)
	p1 := th.New(node)
	p2 := th.New(node)
	shared := th.New(node)
	vm.SetRef(p1, 0, shared)
	vm.SetRef(p2, 0, shared)
	fr.Set(0, p1)
	fr.Set(1, p2)
	vm.AssertUnshared(shared)
	vm.Collect()
	vs := rep.ByKind(gcassert.KindUnshared)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", rep.Violations())
	}
	// The reported path must come through one of the two parents.
	if len(vs[0].Path) != 2 {
		t.Fatalf("path = %+v", vs[0].Path)
	}
	if first := vs[0].Path[0].Addr; first != p1 && first != p2 {
		t.Errorf("path start = %v", first)
	}
}
