package minivm

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gcassert"
)

// leakSrc plants an assert-dead violation: main caches the node it asserts
// dead, so the collector finds it reachable.
const leakSrc = `
class Node { Node next; }
class Main {
  Node cache;
  void main() {
    Node n = new Node();
    cache = n;
    assertDead(n);
    gc();
  }
}`

func TestGuestViolationNamesAllocationSite(t *testing.T) {
	res, err := CompileAndRun(leakSrc, RunOptions{HeapBytes: 8 << 20, Provenance: true})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	vs := res.Violations.Violations()
	if len(vs) == 0 {
		t.Fatal("expected an assert-dead violation")
	}
	v := vs[0]
	if v.Site == "" {
		t.Fatal("violation carries no allocation site with Provenance on")
	}
	// The site names the allocating method, the source line of the `new`,
	// and the class.
	if !strings.Contains(v.Site, "Main.main") || !strings.Contains(v.Site, "new Node") {
		t.Errorf("site = %q, want it to mention Main.main and new Node", v.Site)
	}
	if !strings.Contains(v.String(), "Allocated at: "+v.Site) {
		t.Errorf("report does not show the site:\n%s", v.String())
	}
}

func TestGuestViolationSiteOffByDefault(t *testing.T) {
	res, err := CompileAndRun(leakSrc, RunOptions{HeapBytes: 8 << 20})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	vs := res.Violations.Violations()
	if len(vs) == 0 {
		t.Fatal("expected an assert-dead violation")
	}
	if vs[0].Site != "" {
		t.Errorf("provenance off, yet violation has site %q", vs[0].Site)
	}
}

// nopCloser adapts a buffer into the dump sink's WriteCloser.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestGuestForensicBundle is the end-to-end acceptance path: a guest
// program violates assert-dead under provenance + flight recorder; the
// violation-triggered dump — taken while the world is still stopped, so the
// offending objects are in the heap profile — must hold the violation
// (naming the allocation site) and a heap profile that parses as pprof with
// the guest's sites in it.
func TestGuestForensicBundle(t *testing.T) {
	src := `
class Node { Node next; }
class Main {
  Node cache;
  void main() {
    gc();
    Node keep = new Node();
    int i = 0;
    while (i < 50) {
      Node n = new Node();
      n.next = keep;
      keep = n;
      i = i + 1;
    }
    cache = keep;
    assertDead(keep);
    gc();
  }
}`
	unit, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{
		HeapBytes: 8 << 20, Infrastructure: true, Reporter: rep,
		ProvenanceSample: 1, FlightRecorder: true,
	})
	var dump bytes.Buffer
	vm.Flight().SetDumpSink(func() (io.WriteCloser, error) {
		return nopCloser{&dump}, nil
	})
	im, err := Load(vm, unit, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := im.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Len() == 0 {
		t.Fatal("expected an assert-dead violation")
	}
	if dump.Len() == 0 {
		t.Fatal("violation did not trigger a dump")
	}

	b, err := gcassert.ReadFlightBundle(&dump)
	if err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if b.Trigger != "violation" {
		t.Errorf("bundle trigger = %q, want violation", b.Trigger)
	}
	if len(b.Cycles) == 0 {
		t.Error("bundle has no recorded cycles")
	}
	if len(b.Violations) == 0 {
		t.Fatal("bundle has no violation records")
	}
	vr := b.Violations[0]
	if vr.Kind != "assert-dead" || vr.TypeName != "Node" {
		t.Errorf("violation record = %+v", vr)
	}
	if !strings.Contains(vr.Site, "new Node") {
		t.Errorf("violation record's site = %q, want an allocation site", vr.Site)
	}
	if len(vr.Path) == 0 {
		t.Errorf("violation record lost its path")
	}

	prof, err := gcassert.ParseHeapProfile(b.HeapProfile)
	if err != nil {
		t.Fatalf("bundle heap profile does not parse as pprof: %v", err)
	}
	if len(prof.SampleTypes) != 2 || prof.SampleTypes[1].Unit != "bytes" {
		t.Errorf("profile sample types = %+v", prof.SampleTypes)
	}
	// The guest's Node allocation site must appear with its live population
	// (keep-chain of 51 nodes; both `new Node()` lines are distinct sites).
	var nodeObjs int64
	for _, s := range prof.Samples {
		if s.Labels["type"] == "Node" && strings.Contains(s.Sites[0], "new Node") {
			nodeObjs += s.Values[0]
		}
	}
	if nodeObjs != 51 {
		t.Errorf("profile shows %d sited Node objects, want 51", nodeObjs)
	}
}

// TestGuestCensusBySite: with introspection and provenance on, the census
// snapshot breaks the guest heap down by allocation site.
func TestGuestCensusBySite(t *testing.T) {
	src := `
class Node { Node next; }
class Main {
  Node head;
  void main() {
    int i = 0;
    while (i < 10) {
      Node n = new Node();
      n.next = head;
      head = n;
      i = i + 1;
    }
    gc();
  }
}`
	unit, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := gcassert.New(gcassert.Options{
		HeapBytes: 8 << 20, Infrastructure: true,
		ProvenanceSample: 1, Introspection: true,
	})
	im, err := Load(vm, unit, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := im.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	snap, ok := vm.Census().Latest()
	if !ok {
		t.Fatal("no census snapshot")
	}
	var found bool
	for _, row := range snap.Sites {
		if row.TypeName == "Node" && strings.Contains(row.Site, "new Node") && row.Objects == 10 {
			found = true
		}
	}
	if !found {
		t.Errorf("census site rows miss the Node site: %+v", snap.Sites)
	}
}
