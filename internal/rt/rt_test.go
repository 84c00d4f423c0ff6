package rt

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/fleet"
	"gcassert/internal/heap"
)

func newRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 2 << 20
	}
	return New(cfg)
}

func TestThreadFramesAreRoots(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	fr.Set(0, a)
	r.Collect()
	if !r.Space().Contains(a) {
		t.Fatal("rooted object collected")
	}
	th.Pop()
	r.Collect()
	if r.Space().Contains(a) {
		t.Fatal("popped frame still a root")
	}
}

func TestGlobalsAreRoots(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	g := r.NewGlobal("g")
	a := th.New(node)
	r.SetGlobal(g, a)
	r.Collect()
	if !r.Space().Contains(a) || r.GetGlobal(g) != a {
		t.Fatal("global lost")
	}
	r.SetGlobal(g, heap.Nil)
	r.Collect()
	if r.Space().Contains(a) {
		t.Fatal("cleared global kept object alive")
	}
}

func TestFrameAddTruncate(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(1)
	base := fr.Len()
	a := th.New(node)
	sl := fr.Add(a)
	if fr.Len() != base+1 || fr.Get(sl) != a {
		t.Error("Add")
	}
	fr.Truncate(base)
	if fr.Len() != base {
		t.Error("Truncate")
	}
	mustPanic(t, "truncate grow", func() { fr.Truncate(base + 5) })
	mustPanic(t, "truncate negative", func() { fr.Truncate(-1) })
	mustPanic(t, "pop empty", func() {
		th2 := r.NewThread("t2")
		th2.Pop()
	})
	if th.Depth() != 1 {
		t.Errorf("Depth = %d", th.Depth())
	}
}

// Resize moves the end of the scanned window over slots the caller owns: a
// slot above a shrunk window is no root, comes back as it was left, and
// survives the reallocation of a growing Resize.
func TestFrameResize(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(2)
	slots := fr.Resize(2)
	slots[0], slots[1] = th.New(node), th.New(node)
	kept, dropped := slots[0], slots[1]
	fr.Resize(1)
	r.Collect()
	if !r.Space().Contains(kept) || r.Space().Contains(dropped) {
		t.Fatalf("after shrinking to 1 slot: kept live %v, dropped live %v", r.Space().Contains(kept), r.Space().Contains(dropped))
	}
	if got := fr.Resize(2)[1]; got != dropped {
		t.Errorf("slot 1 came back as %v, the caller left %v", got, dropped)
	}
	grown := fr.Resize(100)
	if fr.Len() != 100 || grown[0] != kept || grown[99] != heap.Nil {
		t.Errorf("after growing: len %d, slot 0 %v (want %v), slot 99 %v", fr.Len(), grown[0], kept, grown[99])
	}
}

// TestPushPopAllocatesNothing: Pop keeps the frames Push made and Push hands
// them out again, so a warm Push/Pop loop makes no host allocation.
func TestPushPopAllocatesNothing(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	a := th.New(node)
	r.SetGlobal(r.NewGlobal("a"), a)
	cycle := func() {
		outer := th.Push(2)
		outer.Set(1, a)
		th.Push(1).Set(0, a)
		th.Pop()
		th.Pop()
	}
	cycle() // warm-up: the two frames are made once
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Push/Pop: %v host allocations per cycle, want 0", n)
	}
}

// TestPushedFrameComesBackNil: a frame Push hands out again has only Nil
// slots, including those a Truncate or a shrinking Resize left above the
// window before its Pop.
func TestPushedFrameComesBackNil(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	a := th.New(node)
	for _, tc := range []struct {
		name string
		use  func(fr *Frame)
	}{
		{"Truncate", func(fr *Frame) {
			fr.Set(0, a)
			fr.Add(a)
			fr.Add(a)
			fr.Truncate(1)
		}},
		{"shrinking Resize", func(fr *Frame) {
			fr.Resize(6)[5] = a
			fr.Resize(1)
		}},
	} {
		fr := th.Push(1)
		tc.use(fr)
		th.Pop()
		again := th.Push(1)
		if again != fr {
			t.Fatalf("%s: Push did not reuse the popped frame", tc.name)
		}
		for i, v := range again.Resize(6) {
			if v != heap.Nil {
				t.Errorf("%s: slot %d of the reused frame holds %v", tc.name, i, v)
			}
		}
		th.Pop()
	}
}

// TestNewFrameIsNeverHandedOutByPush: a NewFrame frame is the caller's
// across PushFrame/Pop pairs, and a frame Push made cannot be pushed again
// with PushFrame.
func TestNewFrameIsNeverHandedOutByPush(t *testing.T) {
	r := newRT(t, Config{})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	a := th.New(node)
	own := th.NewFrame(1)
	for i := 0; i < 3; i++ {
		th.PushFrame(own)
		own.Set(0, a)
		th.Pop()
		if f := th.Push(1); f == own {
			t.Fatal("Push handed out a NewFrame frame")
		}
		th.Pop()
	}
	if own.Get(0) != a {
		t.Errorf("Pop cleared a NewFrame frame: slot 0 = %v", own.Get(0))
	}
	pushed := th.Push(1)
	th.Pop()
	mustPanic(t, "PushFrame of a Push frame", func() { th.PushFrame(pushed) })
}

// TestTelemetryEventWindowIsThePause: a GC event's [StartUnixNs,
// StartUnixNs+TotalNs] is the collection's own pause window, which lies
// between clock reads taken around Collect. The pressure tracker runs
// before any other observer, so a window stamped from an observer's own
// clock would start late and end after the pause did. Every phase span is
// the collector's own window too: inside the pause, in phase order, no
// overlap, and as long as the record's phase time — in the event and in the
// flight recorder's cycle alike.
func TestTelemetryEventWindowIsThePause(t *testing.T) {
	r := newRT(t, Config{Infrastructure: true, Telemetry: true, CostAttribution: true, FlightRecorder: true})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	for round := 0; round < 5; round++ {
		for i := 0; i < 1000; i++ {
			th.New(node)
		}
		before := time.Now().UnixNano()
		col := r.Collect()
		after := time.Now().UnixNano()
		evs := r.Telemetry().Events()
		ev := evs[len(evs)-1]
		start, end := ev.StartUnixNs, ev.StartUnixNs+ev.TotalNs
		if start != col.Start.UnixNano() || ev.TotalNs != int64(col.TotalTime) {
			t.Fatalf("round %d: event window [%d, +%d] is not the collection's [%d, +%d]",
				round, start, ev.TotalNs, col.Start.UnixNano(), int64(col.TotalTime))
		}
		if start < before || end > after {
			t.Fatalf("round %d: event window [%d, %d] outside the clock reads around Collect [%d, %d]",
				round, start, end, before, after)
		}

		want := []time.Duration{col.OwnershipTime, col.MarkTime, col.SweepTime}
		cycles := r.Flight().Cycles()
		cy := cycles[len(cycles)-1]
		if len(ev.Phases) != len(want) || len(cy.Phases) != len(want) {
			t.Fatalf("round %d: event has %d phases, flight cycle %d, want %d", round, len(ev.Phases), len(cy.Phases), len(want))
		}
		prevEnd := start
		for i, p := range ev.Phases {
			if p.Phase != collector.Phase(i).String() || p.DurNs != int64(want[i]) {
				t.Fatalf("round %d: phase %d is %s for %d ns, the record says %s for %d ns",
					round, i, p.Phase, p.DurNs, collector.Phase(i), int64(want[i]))
			}
			if p.StartUnixNs < prevEnd || p.StartUnixNs+p.DurNs > end {
				t.Fatalf("round %d: %s span [%d, +%d] overlaps the previous phase (ended %d) or leaves the pause [%d, %d]",
					round, p.Phase, p.StartUnixNs, p.DurNs, prevEnd, start, end)
			}
			prevEnd = p.StartUnixNs + p.DurNs
			if fp := cy.Phases[i]; fp.Phase != p.Phase || fp.DurNs != p.DurNs {
				t.Fatalf("round %d: flight phase %d is %s for %d ns, the event's %s for %d ns", round, i, fp.Phase, fp.DurNs, p.Phase, p.DurNs)
			}
		}
	}
}

// TestEveryViolationSinkSeesItOnce: with every violation sink on, one
// planted violation reaches the caller's Reporter, the log writer, the
// telemetry violation log, the flight recorder's ring and the fleet
// exporter's latch exactly once each, and the exporter ships a flight
// bundle for it. It also pins the collector's observer list and its order.
func TestEveryViolationSinkSeesItOnce(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fleet.NewServer(store).Handler())
	defer srv.Close()
	rep := &core.CollectingReporter{}
	var log bytes.Buffer
	r := newRT(t, Config{
		Infrastructure: true, Reporter: rep, LogWriter: &log,
		Telemetry: true, FlightRecorder: true, CostAttribution: true, Introspection: true,
		FleetURL: srv.URL, FleetEvery: 1000,
	})

	var order []string
	for _, o := range r.gc.Observers {
		order = append(order, fmt.Sprintf("%T", o))
	}
	want := "[*rt.pressure *rt.telemetrySink *heapdump.Census *flight.Recorder *fleet.Exporter]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("observers = %s, want %s", got, want)
	}

	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	fr.Set(0, a)
	r.AssertDead(a)
	r.Collect()
	r.Collect() // a second cycle must not re-deliver or re-ship
	r.CloseFleet()

	if rep.Len() != 1 {
		t.Fatalf("Reporter saw %d violations, want 1", rep.Len())
	}
	if n := strings.Count(log.String(), rep.Violations()[0].String()); n != 1 {
		t.Errorf("log writer printed the violation %d times, want 1", n)
	}
	if _, total := r.Telemetry().Violations(); total != 1 {
		t.Errorf("telemetry logged %d violations, want 1", total)
	}
	if n := r.Flight().Stats().ViolationsRecorded; n != 1 {
		t.Errorf("flight recorder holds %d violations, want 1", n)
	}
	if n := r.Engine().Stats().Violations; n != 1 {
		t.Errorf("engine counted %d violations, want 1", n)
	}
	var flights int
	for _, m := range store.List() {
		if m.Kind == fleet.KindFlight {
			flights++
		}
	}
	if flights != 1 {
		t.Errorf("fleet store holds %d flight bundles, want 1 (exporter stats %+v)", flights, r.FleetExporter().Stats())
	}
}

func TestAllocTriggersGCAndOOM(t *testing.T) {
	r := newRT(t, Config{HeapBytes: 2 * heap.BlockBytes})
	th := r.NewThread("main")
	// Transient churn succeeds indefinitely thanks to collect-on-failure.
	for i := 0; i < 1000; i++ {
		th.NewArray(heap.TWordArray, 1000)
	}
	if r.Collector().GCCount() == 0 {
		t.Fatal("no collections happened")
	}
	// Retaining everything eventually panics with *OOMError.
	fr := th.Push(0)
	defer func() {
		r := recover()
		if _, ok := r.(*OOMError); !ok {
			t.Fatalf("recover = %v, want *OOMError", r)
		}
	}()
	for i := 0; i < 100000; i++ {
		fr.Add(th.NewArray(heap.TWordArray, 1000))
	}
	t.Fatal("expected OOM")
}

func TestAssertionsRequireInfrastructure(t *testing.T) {
	r := newRT(t, Config{Infrastructure: false})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(1)
	a := th.New(node)
	fr.Set(0, a)
	mustPanic(t, "AssertDead", func() { r.AssertDead(a) })
	mustPanic(t, "AssertUnshared", func() { r.AssertUnshared(a) })
	mustPanic(t, "AssertInstances", func() { r.AssertInstances(node, 1) })
	mustPanic(t, "AssertOwnedBy", func() { r.AssertOwnedBy(a, a) })
	mustPanic(t, "StartRegion", func() { th.StartRegion() })
	if r.Engine() != nil {
		t.Error("engine should be nil in base mode")
	}
}

func TestRegionViaThread(t *testing.T) {
	rep := &core.CollectingReporter{}
	r := newRT(t, Config{Infrastructure: true, Reporter: rep})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	th := r.NewThread("main")
	fr := th.Push(1)
	th.StartRegion()
	if !th.InRegion() {
		t.Error("InRegion")
	}
	var escape heap.Addr
	for i := 0; i < 10; i++ {
		o := th.New(node)
		if i == 5 {
			escape = o
			fr.Set(0, o)
		}
	}
	if n := th.AssertAllDead(); n != 10 {
		t.Errorf("AssertAllDead = %d", n)
	}
	if th.InRegion() {
		t.Error("region still open")
	}
	mustPanic(t, "double AssertAllDead", func() { th.AssertAllDead() })
	r.Collect()
	vs := rep.ByKind(core.KindDead)
	if len(vs) != 1 || vs[0].Object != escape {
		t.Errorf("violations = %v", vs)
	}
}

func TestThreadsIndependentRegions(t *testing.T) {
	r := newRT(t, Config{Infrastructure: true})
	node := r.Define("Node", heap.Field{Name: "next", Ref: true})
	t1 := r.NewThread("a")
	t2 := r.NewThread("b")
	t1.StartRegion()
	// t2 allocations are not tracked by t1's region.
	t2.New(node)
	if n := t1.AssertAllDead(); n != 0 {
		t.Errorf("thread isolation broken: %d", n)
	}
	if t1.ID() == t2.ID() || t1.Name() != "a" {
		t.Error("thread identity")
	}
}

func TestDefaultHeapSize(t *testing.T) {
	r := New(Config{})
	if r.Space().CapacityWords() < (64<<20)/heap.WordBytes {
		t.Error("default heap too small")
	}
}

func TestOOMErrorMessage(t *testing.T) {
	e := &OOMError{Type: 7, Len: 3, Live: heap.Stats{LiveObjects: 10, LiveWords: 100}}
	if e.Error() == "" {
		t.Error("empty error")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}
