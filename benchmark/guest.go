package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// The MJ guests the service workloads drive. A request is one run of
// Main.main() on a fresh Main, so nothing survives from one request to the
// next and every request of a run does the same work. The seed picks only
// the starting value of the guest's own generator — which slots get
// replaced in which order — so that the work per request, and with it every
// timing, is the same for every seed.

const (
	guestSlots   = 64   // the bounded live structure: a Box of this many Items
	guestIters   = 1600 // replacements per request
	guestTemp    = 4    // short-lived list nodes built per replacement
	guestPad     = 6    // words of payload per kept Item
	guestHeapMiB = 5    // tenant heap: a collection about every fourteenth request
)

// guestChurn is svc-guest's program: it keeps a Box of guestSlots Items and
// replaces a pseudo-random slot guestIters times, building and dropping a
// short list each time. Every replaced Item is asserted dead and Box is
// asserted to have one live instance; both always hold. (The kept Items are
// not asserted unshared: the interpreter's frames are roots, roots count as
// incoming pointers, and a popped operand-stack slot keeps its reference
// until it is overwritten.) With plant set, the request ends by keeping an
// Item it asserted dead reachable and putting an unshared Item in two slots,
// then collecting: exactly one dead and one unshared violation. Both objects
// are allocated before either assertion, so no collection can run between
// the assertions and the gc() that must report them.
func guestChurn(seed uint64, plant bool) string {
	x0 := 1 + seed%2147483646
	planted := ""
	if plant {
		planted = `
    Item kept = new Item();
    Item twice = new Item();
    assertDead(kept);
    stray = kept;
    kept = null;
    assertUnshared(twice);
    b.slots[1] = twice;
    b.slots[2] = twice;
    twice = null;
    gc();`
	}
	return fmt.Sprintf(`class Item { Item next; int v; int[] pad; }
class Box {
  Item[] slots;
  void init(int cap) { slots = new Item[cap]; }
}
class Main {
  Item stray;
  void main() {
    assertInstances(Box, 1);
    Box b = new Box();
    b.init(%d);
    int x = %d;
    int sum = 0;
    for (int i = 0; i < %d; i = i + 1) {
      x = (x * 48271) %% 2147483647;
      int k = x %% %d;
      Item old = b.slots[k];
      Item it = new Item();
      it.v = i;
      it.pad = new int[%d];
      Item t = null;
      for (int j = 0; j < %d; j = j + 1) { Item u = new Item(); u.next = t; u.v = j; t = u; }
      while (t != null) { sum = sum + t.v; t = t.next; }
      b.slots[k] = it;
      it = null;
      if (old != null) { assertDead(old); old = null; }
    }%s
  }
}
`, guestSlots, x0, guestIters, guestSlots, guestPad, guestTemp, planted)
}

// guestTiny is svc-tiny's program, the 16-node guest of the repository's
// BenchmarkDriveUntraced without its closing gc(): build a 16-node list and
// drop it. A forced collection on every request would be 45 % of the round
// trip, and this workload exists to be the one that transport dominates;
// the tenant collects when its heap fills, every two thousand requests.
// The seed only changes a stored value. With plant set the list is asserted
// dead while still referenced and a collection forced: exactly one dead
// violation.
func guestTiny(seed uint64, plant bool) string {
	drop := "g = null;"
	if plant {
		drop = "assertDead(g);\n    gc();"
	}
	return fmt.Sprintf(`class Node { Node next; int v; }
class Main {
  void main() {
    Node g = null;
    int j = 0;
    while (j < 16) { Node t = new Node(); t.v = %d; t.next = g; g = t; j = j + 1; }
    %s
  }
}
`, seed%1000003, drop)
}

// saveGuest keeps a copy of the generated program beside the other run
// outputs, so a run's input can be read afterwards.
func saveGuest(workload string, seed uint64, src string) {
	if os.MkdirAll("out", 0o755) != nil {
		return
	}
	// Best effort: the copy is for people, the run does not depend on it.
	_ = os.WriteFile(filepath.Join("out", fmt.Sprintf("guest-%s-%d.mj", workload, seed)), []byte(src), 0o644)
}
