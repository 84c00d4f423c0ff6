package minivm

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcassert"
)

// exampleSources returns the MJ programs under examples/mj, by file name.
func exampleSources(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob("../../examples/mj/*.mj")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example programs: %v", err)
	}
	srcs := make(map[string]string)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	return srcs
}

// mustCompile compiles src or fails the test.
func mustCompile(tb testing.TB, src string) *Unit {
	tb.Helper()
	unit, err := Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	return unit
}

// newImage loads unit on a fresh infrastructure-mode runtime configured by
// opts, with a collecting reporter; out receives what the guest prints.
func newImage(tb testing.TB, unit *Unit, opts gcassert.Options, out io.Writer) *Image {
	tb.Helper()
	opts.Infrastructure, opts.Reporter = true, &gcassert.CollectingReporter{}
	im, err := Load(gcassert.New(opts), unit, out)
	if err != nil {
		tb.Fatal(err)
	}
	return im
}

// Unbounded guest recursion used to recurse the host's invoke until the Go
// runtime died of "fatal error: stack overflow", which nothing can recover.
func TestGuestStackOverflow(t *testing.T) {
	_, err := CompileAndRun(`
class Main {
  int f(int n) { return this.f(n + 1); }
  void main() { int x = this.f(0); }
}`, RunOptions{HeapBytes: 4 << 20, MaxSteps: 50_000_000})
	var ve *VMError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want a *VMError", err)
	}
	if !strings.Contains(ve.Msg, "stack overflow") || ve.Method != "Main.f(int) int" || ve.Pos.Line != 3 {
		t.Errorf("trap = %+v, want a stack overflow in Main.f at line 3", ve)
	}
}

// A trap leaves the image usable: the next Run starts from empty stacks.
func TestRunAfterTrap(t *testing.T) {
	im := newImage(t, mustCompile(t, `
class Box { int n; }
class Main {
  int f(Box b, int d) { if (d == 0) { return 1 / b.n; } return this.f(b, d - 1); }
  void main() { print(this.f(new Box(), 40)); }
}`), gcassert.Options{HeapBytes: 1 << 20}, io.Discard)
	for i := 0; i < 3; i++ {
		if err := im.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("run %d: err = %v", i, err)
		}
		if d := im.Thread().Depth(); d != 0 {
			t.Fatalf("run %d left %d frames on the thread", i, d)
		}
	}
}

// deepThenShallow regrows both stacks in the middle of a run, then runs
// shallow activations over the slots the deep ones returned from.
const deepThenShallow = `
class Node { Node next; }
class Main {
  Node deep(int d, Node chain) {
    if (d == 0) { gc(); return chain; }
    Node n = new Node();
    n.next = chain;
    return this.deep(d - 1, n);
  }
  int shallow(Node a, int k) { Node t = new Node(); t.next = a; gc(); return k + 1; }
  void main() {
    Node r = this.deep(3, null);
    r = this.deep(500, null);
    r = null;
    int k = this.shallow(new Node(), 1);
    k = this.shallow(null, k);
    r = this.deep(20, new Node());
    print(k);
  }
}`

// TestRootPrecision checks the invariants of the activation layout (see
// run) at every safepoint — every allocation, gc() and assert intrinsic, the
// only places a collection can start:
//
//  1. every scanned slot at or above the active sp is Nil;
//  2. so is every slot a returned activation used, which the test re-exposes
//     by widening the window to the most the run ever scanned;
//  3. the scanned window ends at the active activation's top.
//
// It also holds the layout to its word that a reference is never kept
// beside an integer local.
func TestRootPrecision(t *testing.T) {
	srcs := exampleSources(t)
	srcs["deep-then-shallow"] = deepThenShallow
	modes := map[string]gcassert.Options{
		"sequential": {},
	}
	for mode, opts := range modes {
		for name, src := range srcs {
			t.Run(mode+"/"+name, func(t *testing.T) {
				opts.HeapBytes = 1 << 20
				im := newImage(t, mustCompile(t, src), opts, io.Discard)
				safepoints, widest := 0, 0
				im.atSafepoint = func(sp int) {
					safepoints++
					m, base, fr := im.cur.m, im.cur.base, im.fr
					top := base + m.NumLocals + m.MaxStack
					if fr.Len() != top {
						t.Fatalf("invariant 3: %d slots scanned in %s, its activation ends at %d", fr.Len(), m.Sig(), top)
					}
					widest = max(widest, top)
					slots := fr.Resize(widest)
					for i := base + sp; i < widest; i++ {
						if slots[i] != gcassert.Nil {
							t.Fatalf("invariants 1, 2: slot %d holds %v in %s with sp at %d", i, slots[i], m.Sig(), base+sp)
						}
					}
					for i, isRef := range m.RefSlot {
						if !isRef && slots[base+i] != gcassert.Nil {
							t.Fatalf("integer local %d of %s has reference %v beside it", i, m.Sig(), slots[base+i])
						}
					}
					fr.Resize(top)
				}
				if err := im.Run(); err != nil {
					t.Fatal(err)
				}
				if safepoints == 0 {
					t.Fatal("the program reached no safepoint")
				}
			})
		}
	}
}

// An object held only by an operand-stack temporary is garbage once the
// temporary is popped: popping a reference clears its scanned slot
// (invariant 1), it does not wait to be overwritten.
func TestPoppedTemporaryIsNotARoot(t *testing.T) {
	_, rep := run(t, `
class Item { int v; }
class Main { void main() { assertDead(new Item()); gc(); } }`)
	if rep.Len() != 0 {
		t.Errorf("a popped temporary kept its object alive: %v", rep.Violations())
	}
}

// What the root set still over-approximates: a reference local keeps its
// slot, and so its object, for the rest of the activation, not the rest of
// its block. The violation below is wrong by the program's scoping and
// expected by this test; a liveness-precise root set (ROADMAP item 4) turns
// the 1 into a 0.
func TestBlockScopedRefLocalIsStillARootAfterItsBlock(t *testing.T) {
	_, rep := run(t, `
class Item { int v; }
class Main { void main() { { Item t = new Item(); assertDead(t); } gc(); } }`)
	if rep.Len() != 1 {
		t.Errorf("%d violations, want the 1 the dead local still causes: %v", rep.Len(), rep.Violations())
	}
}
