package minivm

import (
	"fmt"
	"io"
	"testing"

	"gcassert"
)

// Interpreter micro-benchmarks. Each guest's trip count is b.N, so one op is
// one trip of the guest loop; "ns/instr" divides the same time by the image's
// step count. A Run reuses its image's stacks and frame; the
// self-assertions are that, once those have grown, a Run allocates nothing
// on the host however many instructions and calls it executes.

// benchImage loads src on a fresh 5 MiB runtime (svc-guest's heap).
func benchImage(tb testing.TB, src string) *Image {
	tb.Helper()
	return newImage(tb, mustCompile(tb, src), gcassert.Options{HeapBytes: 5 << 20}, io.Discard)
}

// runAllocs is the host allocations of one Run of src once its stacks have
// grown.
func runAllocs(tb testing.TB, src string) float64 {
	im := benchImage(tb, src)
	return testing.AllocsPerRun(5, func() {
		if err := im.Run(); err != nil {
			tb.Fatal(err)
		}
	})
}

// benchGuest times one Run of the guest built from srcFmt with b.N trips.
// With allocFree it first asserts — once, on the b.N = 1 probe every benchmark
// starts with — that a 1000-trip Run allocates nothing on the host.
func benchGuest(b *testing.B, srcFmt string, allocFree bool) {
	if allocFree && b.N == 1 {
		if got := runAllocs(b, fmt.Sprintf(srcFmt, 1000)); got != 0 {
			b.Fatalf("a 1000-trip Run costs %v host allocs, want 0", got)
		}
	}
	im := benchImage(b, fmt.Sprintf(srcFmt, b.N))
	b.ReportAllocs()
	b.ResetTimer()
	if err := im.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(im.steps), "ns/instr")
	b.ReportMetric(float64(im.steps)/float64(b.N), "instr/op")
}

const (
	// benchArith is locals, arithmetic, compares and branches only.
	benchArith = `class Main { void main() {
  int x = 1; int s = 0;
  for (int i = 0; i < %d; i = i + 1) {
    x = (x * 48271) %% 2147483647;
    if (x %% 3 == 0) { s = s + x; } else { s = s - 1; }
  }
} }`
	// benchFieldArray adds checked field and array traffic, both kinds.
	benchFieldArray = `class Cell { int v; Cell next; }
class Main { void main() {
  int[] a = new int[64]; Cell[] r = new Cell[64];
  Cell c = new Cell(); c.next = c;
  for (int i = 0; i < %d; i = i + 1) {
    int k = i %% 64;
    a[k] = a[k] + c.v;
    c.v = a[k];
    r[k] = c.next;
    c = r[k];
  }
} }`
	// benchChurn is the replacement loop of the repository benchmark's
	// svc-guest program (benchmark/guest.go), one replacement per trip.
	benchChurn = `class Item { Item next; int v; int[] pad; }
class Box { Item[] slots; void init(int cap) { slots = new Item[cap]; } }
class Main { void main() {
  assertInstances(Box, 1);
  Box b = new Box(); b.init(64);
  int x = 7; int sum = 0;
  for (int i = 0; i < %d; i = i + 1) {
    x = (x * 48271) %% 2147483647;
    int k = x %% 64;
    Item old = b.slots[k];
    Item it = new Item(); it.v = i; it.pad = new int[6];
    Item t = null;
    for (int j = 0; j < 4; j = j + 1) { Item u = new Item(); u.next = t; u.v = j; t = u; }
    while (t != null) { sum = sum + t.v; t = t.next; }
    b.slots[k] = it; it = null;
    if (old != null) { assertDead(old); old = null; }
  }
} }`
	// benchCall is one call and return of a two-argument method per trip.
	benchCall = `class Main {
  int add(int a, int b) { return a + b; }
  void main() { int s = 0; for (int i = 0; i < %d; i = i + 1) { s = this.add(s, i); } }
}`
)

func BenchmarkInterpNsPerInstr(b *testing.B) {
	b.Run("arith", func(b *testing.B) { benchGuest(b, benchArith, true) })
	b.Run("field-array", func(b *testing.B) { benchGuest(b, benchFieldArray, true) })
	b.Run("churn", func(b *testing.B) { benchGuest(b, benchChurn, false) })
}

func BenchmarkInterpCall(b *testing.B) { benchGuest(b, benchCall, true) }
