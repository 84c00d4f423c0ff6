package gcassert_test

import (
	"fmt"
	"strings"
	"testing"

	"gcassert"
)

func TestWriteDOT(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 4 << 20})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	b := th.New(node)
	vm.SetRef(a, 0, b)
	fr.Set(0, a)
	orphan := th.New(node) // unreachable: must not appear
	_ = orphan

	var out strings.Builder
	if err := vm.WriteDOT(&out, 0); err != nil {
		t.Fatal(err)
	}
	dot := out.String()
	for _, want := range []string{
		"digraph heap {",
		`label="main.locals"`,
		`label="Node"`,
		`[label="next"]`,
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Exactly two Node objects (a and b): count node declarations.
	if got := strings.Count(dot, `[label="Node"]`); got != 2 {
		t.Errorf("node count = %d, want 2:\n%s", got, dot)
	}
	if !strings.Contains(dot, fmt.Sprintf("o%d -> o%d", uint32(a), uint32(b))) {
		t.Errorf("edge a->b missing:\n%s", dot)
	}
}

func TestWriteDOTTruncation(t *testing.T) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 4 << 20})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	var head gcassert.Ref
	for i := 0; i < 100; i++ {
		n := th.New(node)
		vm.SetRef(n, 0, head)
		head = n
		fr.Set(0, head)
	}
	var out strings.Builder
	if err := vm.WriteDOT(&out, 10); err != nil {
		t.Fatal(err)
	}
	dot := out.String()
	if !strings.Contains(dot, "// truncated: 90 additional objects not shown") {
		t.Errorf("expected a truncation note counting the 90 omitted objects:\n%s", dot)
	}
	if got := strings.Count(dot, `[label="Node"]`); got > 10 {
		t.Errorf("emitted %d nodes, cap was 10", got)
	}
}
