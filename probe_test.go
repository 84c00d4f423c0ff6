package gcassert_test

import (
	"testing"

	"gcassert"
)

// probeWorld builds: root -> a -> b -> c, plus unrooted orphan.
func probeWorld(t *testing.T, rep gcassert.Reporter) (*gcassert.Runtime, [4]gcassert.Ref) {
	t.Helper()
	vm := gcassert.New(gcassert.Options{HeapBytes: 4 << 20, Infrastructure: true, Reporter: rep})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(2)
	a := th.New(node)
	b := th.New(node)
	c := th.New(node)
	orphan := th.New(node)
	vm.SetRef(a, 0, b)
	vm.SetRef(b, 0, c)
	fr.Set(0, a)
	_ = orphan
	return vm, [4]gcassert.Ref{a, b, c, orphan}
}

func TestIsReachable(t *testing.T) {
	vm, o := probeWorld(t, nil)
	a, b, c, orphan := o[0], o[1], o[2], o[3]
	for _, r := range []gcassert.Ref{a, b, c} {
		if !vm.IsReachable(r) {
			t.Errorf("%v should be reachable", r)
		}
	}
	if vm.IsReachable(orphan) {
		t.Error("orphan should be unreachable")
	}
	if vm.IsReachable(gcassert.Nil) {
		t.Error("nil reachable")
	}
}

func TestPathTo(t *testing.T) {
	vm, o := probeWorld(t, nil)
	a, c, orphan := o[0], o[2], o[3]
	path, root, ok := vm.PathTo(c)
	if !ok {
		t.Fatal("c unreachable")
	}
	if root != "main.locals" {
		t.Errorf("root = %q", root)
	}
	if len(path) != 3 || path[0].Addr != a || path[2].Addr != c {
		t.Fatalf("path = %+v", path)
	}
	if path[0].Field != "next" || path[1].Field != "next" || path[2].Field != "" {
		t.Errorf("fields: %+v", path)
	}
	if _, _, ok := vm.PathTo(orphan); ok {
		t.Error("orphan has a path?")
	}
	if _, _, ok := vm.PathTo(gcassert.Nil); ok {
		t.Error("nil has a path?")
	}
	// A directly-rooted object has a one-step path.
	p2, _, ok := vm.PathTo(a)
	if !ok || len(p2) != 1 || p2[0].Addr != a {
		t.Errorf("direct path = %+v", p2)
	}
}

func TestRetainedBy(t *testing.T) {
	vm, o := probeWorld(t, nil)
	a, b, orphan := o[0], o[1], o[3]
	if n := vm.RetainedBy(b); n != 1 {
		t.Errorf("RetainedBy(b) = %d", n)
	}
	// Add a second referent.
	node := gcassert.TypeID(0)
	if id, ok := vm.Registry().Lookup("Node"); ok {
		node = id
	}
	th := vm.NewThread("aux")
	fr := th.Push(1)
	d := th.New(node)
	fr.Set(0, d)
	vm.SetRef(d, 0, b)
	if n := vm.RetainedBy(b); n != 2 {
		t.Errorf("RetainedBy(b) after second edge = %d", n)
	}
	// Roots are not heap referents.
	if n := vm.RetainedBy(a); n != 0 {
		t.Errorf("RetainedBy(a) = %d (roots must not count)", n)
	}
	if n := vm.RetainedBy(orphan); n != 0 {
		t.Errorf("RetainedBy(orphan) = %d", n)
	}
	if n := vm.RetainedBy(gcassert.Nil); n != 0 {
		t.Errorf("RetainedBy(nil) = %d", n)
	}
}

// TestProbeAgreesWithAssertDead: the probe and the deferred assertion agree
// on reachability.
func TestProbeAgreesWithAssertDead(t *testing.T) {
	rep := &gcassert.CollectingReporter{}
	vm, o := probeWorld(t, rep)
	c, orphan := o[2], o[3]
	probeSaysLiveC := vm.IsReachable(c)
	probeSaysLiveOrphan := vm.IsReachable(orphan)
	vm.AssertDead(c)
	vm.AssertDead(orphan)
	vm.Collect()
	if got := len(rep.ByKind(gcassert.KindDead)) == 1; !got {
		t.Fatalf("violations = %v", rep.Violations())
	}
	if !probeSaysLiveC || probeSaysLiveOrphan {
		t.Error("probe disagrees with collector")
	}
}
