package heapdump_test

import (
	"reflect"
	"strings"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
	"gcassert/internal/heapdump"
)

// sliceRoots is a test RootScanner over a plain slice.
type sliceRoots struct {
	slots []heap.Addr
}

func (r *sliceRoots) Roots(yield func(collector.Root)) {
	for i := range r.slots {
		yield(collector.Root{Slot: &r.slots[i], Desc: "test-root"})
	}
}

// world builds a space with a two-ref node type and a leaf type, a collector
// over slice roots, and a census wired as the collector's one observer.
func world(t testing.TB, ring int) (*heap.Space, heap.TypeID, heap.TypeID, *sliceRoots, *collector.Collector, *heapdump.Census) {
	t.Helper()
	reg := heap.NewRegistry()
	node := reg.Define("Node", heap.Field{Name: "a", Ref: true}, heap.Field{Name: "b", Ref: true})
	leaf := reg.Define("Leaf", heap.Field{Name: "v"})
	s := heap.NewSpace(reg, 1<<20)
	roots := &sliceRoots{}
	c := collector.New(s, roots, nil, false)
	census := heapdump.NewCensus(s, heapdump.Config{Ring: ring})
	c.Observers = []collector.Observer{census}
	return s, node, leaf, roots, c, census
}

func mustAlloc(t testing.TB, s *heap.Space, typ heap.TypeID, n int) heap.Addr {
	t.Helper()
	a, ok := s.Allocate(typ, n)
	if !ok {
		t.Fatal("allocation failed")
	}
	return a
}

func TestCensusMatchesLiveHeap(t *testing.T) {
	s, node, leaf, roots, c, census := world(t, 8)

	// A chain of 3 nodes, each holding a leaf; one garbage node.
	var chain [3]heap.Addr
	for i := range chain {
		chain[i] = mustAlloc(t, s, node, 0)
		s.SetRef(chain[i], 1, mustAlloc(t, s, leaf, 0))
		if i > 0 {
			s.SetRef(chain[i-1], 0, chain[i])
		}
	}
	mustAlloc(t, s, node, 0) // garbage
	roots.slots = []heap.Addr{chain[0]}

	col := c.Collect(collector.ReasonForced)

	snap, ok := census.Latest()
	if !ok {
		t.Fatal("no snapshot after collection")
	}
	if snap.GC != col.Seq {
		t.Errorf("snapshot GC = %d, want %d", snap.GC, col.Seq)
	}
	if snap.Reason != string(collector.ReasonForced) {
		t.Errorf("snapshot reason = %q", snap.Reason)
	}
	if snap.TotalObjects != uint64(col.ObjectsLive) {
		t.Errorf("TotalObjects = %d, want ObjectsLive = %d", snap.TotalObjects, col.ObjectsLive)
	}
	if snap.TotalCellWords != uint64(s.Stats().LiveWords) {
		t.Errorf("TotalCellWords = %d, want Stats.LiveWords = %d", snap.TotalCellWords, s.Stats().LiveWords)
	}
	nrow := snap.ByType(node)
	lrow := snap.ByType(leaf)
	if nrow == nil || lrow == nil {
		t.Fatalf("missing rows: node=%v leaf=%v", nrow, lrow)
	}
	if nrow.Objects != 3 || lrow.Objects != 3 {
		t.Errorf("objects: node=%d leaf=%d, want 3 and 3", nrow.Objects, lrow.Objects)
	}
	if nrow.TypeName != "Node" {
		t.Errorf("row type name = %q", nrow.TypeName)
	}

	// Rows are sorted by payload words descending.
	for i := 1; i < len(snap.Types); i++ {
		if snap.Types[i].Words > snap.Types[i-1].Words {
			t.Errorf("rows not sorted at %d", i)
		}
	}
}

func TestCensusTracksDeath(t *testing.T) {
	s, node, _, roots, c, census := world(t, 8)
	a := mustAlloc(t, s, node, 0)
	roots.slots = []heap.Addr{a}
	c.Collect(collector.ReasonForced)
	roots.slots[0] = heap.Nil
	c.Collect(collector.ReasonForced)
	snap, _ := census.Latest()
	if snap.TotalObjects != 0 || len(snap.Types) != 0 {
		t.Errorf("after death: %d objects, %d rows; want empty census", snap.TotalObjects, len(snap.Types))
	}
	if got := len(census.Snapshots()); got != 2 {
		t.Errorf("retained %d snapshots, want 2", got)
	}
}

func TestCensusRingWraps(t *testing.T) {
	_, _, _, _, c, census := world(t, 3)
	for i := 0; i < 5; i++ {
		c.Collect(collector.ReasonForced)
	}
	snaps := census.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("retained %d snapshots, want ring size 3", len(snaps))
	}
	// Oldest-first: sequence numbers 2, 3, 4.
	for i, want := range []uint64{2, 3, 4} {
		if snaps[i].GC != want {
			t.Errorf("snaps[%d].GC = %d, want %d", i, snaps[i].GC, want)
		}
	}
	if census.Total() != 5 {
		t.Errorf("Total = %d, want 5", census.Total())
	}
	if last := census.Last(2); len(last) != 2 || last[1].GC != 4 {
		t.Errorf("Last(2) = %+v", last)
	}
}

func TestCensusOnSnapshotCallback(t *testing.T) {
	_, _, _, _, c, census := world(t, 4)
	var got []uint64
	census.SetOnSnapshot(func(s *heapdump.Snapshot) { got = append(got, s.GC) })
	c.Collect(collector.ReasonForced)
	c.Collect(collector.ReasonForced)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("callback sequence = %v", got)
	}
}

func TestSizeBucket(t *testing.T) {
	cases := []struct{ words, bucket int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 21, 21}, {1<<22 + 5, heapdump.NumSizeBuckets - 1},
	}
	for _, tc := range cases {
		if got := heapdump.SizeBucket(tc.words); got != tc.bucket {
			t.Errorf("SizeBucket(%d) = %d, want %d", tc.words, got, tc.bucket)
		}
	}
}

func TestCensusJSONExport(t *testing.T) {
	s, node, _, roots, c, census := world(t, 4)
	roots.slots = []heap.Addr{mustAlloc(t, s, node, 0)}
	c.Collect(collector.ReasonForced)
	var b strings.Builder
	if err := census.WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total": 1`, `"type_name": "Node"`, `"total_objects": 1`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, b.String())
		}
	}
}

func TestSuspectsRankGrowingType(t *testing.T) {
	s, node, leaf, roots, c, census := world(t, 16)
	// leaky grows by 5 leaves per GC; one stable node stays flat.
	stable := mustAlloc(t, s, node, 0)
	roots.slots = []heap.Addr{stable}
	var hold []heap.Addr
	for gc := 0; gc < 6; gc++ {
		for i := 0; i < 5; i++ {
			l := mustAlloc(t, s, leaf, 0)
			hold = append(hold, l)
			roots.slots = append(roots.slots, l)
		}
		c.Collect(collector.ReasonForced)
	}
	_ = hold
	sus := census.Suspects(0, 3)
	if len(sus) == 0 {
		t.Fatal("no suspects for a monotonically growing type")
	}
	if sus[0].Type != leaf {
		t.Errorf("top suspect = %s, want Leaf", sus[0].TypeName)
	}
	if sus[0].Growth != 1.0 {
		t.Errorf("growth = %v, want 1.0", sus[0].Growth)
	}
	if sus[0].SlopeObjectsPerGC < 4 || sus[0].SlopeObjectsPerGC > 6 {
		t.Errorf("object slope = %v, want ~5", sus[0].SlopeObjectsPerGC)
	}
	for _, su := range sus {
		if su.Type == node {
			t.Errorf("flat type Node reported as suspect: %+v", su)
		}
	}
}

func TestSuspectsNeedTwoSnapshots(t *testing.T) {
	_, _, _, _, c, census := world(t, 4)
	if s := census.Suspects(0, 5); s != nil {
		t.Errorf("suspects with no snapshots: %v", s)
	}
	c.Collect(collector.ReasonForced)
	if s := census.Suspects(0, 5); s != nil {
		t.Errorf("suspects with one snapshot: %v", s)
	}
}

func TestRankSuspectsIgnoresShrinkingTypes(t *testing.T) {
	mk := func(gc uint64, words uint64) heapdump.Snapshot {
		return heapdump.Snapshot{GC: gc, Types: []heapdump.TypeCensus{
			{Type: 5, TypeName: "Shrinker", Words: words, Objects: words},
		}}
	}
	sus := heapdump.RankSuspects([]heapdump.Snapshot{mk(0, 100), mk(1, 60), mk(2, 20)}, 10)
	if len(sus) != 0 {
		t.Errorf("shrinking type ranked as suspect: %+v", sus)
	}
}

// TestCountIsTheCensusOnDemand: right after a collection the on-demand
// count equals the census snapshot of that collection, per type and per
// site; between collections it also counts what was allocated since.
func TestCountIsTheCensusOnDemand(t *testing.T) {
	s, node, leaf, roots, c, census := world(t, 8)
	s.EnableProvenance(1)
	site := s.Provenance().Register("census_test.go: new Leaf")
	head := mustAlloc(t, s, node, 0)
	for i := 0; i < 5; i++ {
		l := mustAlloc(t, s, leaf, 0)
		s.RecordSite(l, site)
		n := mustAlloc(t, s, node, 0)
		s.SetRef(n, 0, head)
		s.SetRef(n, 1, l)
		head = n
	}
	mustAlloc(t, s, leaf, 0) // garbage
	roots.slots = []heap.Addr{head}
	c.Collect("test")

	snap, _ := census.Latest()
	got := heapdump.Count(s)
	if !reflect.DeepEqual(got.Types, snap.Types) || !reflect.DeepEqual(got.Sites, snap.Sites) {
		t.Fatalf("count after a collection:\n%+v\n%+v\nthe collection's census:\n%+v\n%+v", got.Types, got.Sites, snap.Types, snap.Sites)
	}
	if len(got.Sites) != 2 || got.TotalObjects != 11 {
		t.Errorf("count has %d site rows and %d objects, want 2 and 11: %+v", len(got.Sites), got.TotalObjects, got.Sites)
	}
	mustAlloc(t, s, leaf, 0)
	if n := heapdump.Count(s).TotalObjects; n != 12 {
		t.Errorf("count after one more allocation = %d objects, want 12", n)
	}
}
