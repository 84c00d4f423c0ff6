package flight

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/heapdump"
)

// record is a collection record with a 5 ms mark phase inside a 6 ms pause.
func record(seq uint64, reason collector.Reason, live int) *collector.Collection {
	start := time.Unix(0, int64(seq)*int64(time.Second))
	col := &collector.Collection{
		Seq: seq, Reason: reason, Start: start,
		MarkTime: 5 * time.Millisecond, TotalTime: 6 * time.Millisecond, ObjectsLive: live,
	}
	col.PhaseStart[collector.PhaseMark] = start.Add(time.Millisecond)
	return col
}

// playCycle drives the recorder through one synthetic collection.
func playCycle(r *Recorder, seq uint64, live int) {
	col := record(seq, collector.ReasonForced, live)
	r.GCBegin(col)
	r.GCEnd(col)
}

func TestRecorderRingBounds(t *testing.T) {
	r := New(Config{Cycles: 4, Violations: 2})
	for i := 0; i < 10; i++ {
		playCycle(r, uint64(i), 100+i)
	}
	cycles := r.Cycles()
	if len(cycles) != 4 {
		t.Fatalf("retained %d cycles, want 4", len(cycles))
	}
	for i, cy := range cycles {
		if want := uint64(6 + i); cy.GC != want {
			t.Errorf("cycle %d: GC = %d, want %d (oldest-first ring)", i, cy.GC, want)
		}
	}
	for i := 0; i < 5; i++ {
		r.RecordViolation(ViolationRecord{GC: uint64(i), Kind: "assert-dead"})
	}
	v := r.Violations()
	if len(v) != 2 || v[0].GC != 3 || v[1].GC != 4 {
		t.Fatalf("violations = %+v, want GCs 3,4", v)
	}
	st := r.Stats()
	if st.CyclesRecorded != 10 || st.ViolationsRecorded != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecorderCycleDetail(t *testing.T) {
	r := New(Config{})
	var act [core.NumKinds]core.KindActivity
	r.SetActivitySource(func() [core.NumKinds]core.KindActivity { return act })
	snap := heapdump.Snapshot{}
	r.SetCensusSource(func() (heapdump.Snapshot, bool) { return snap, true })

	// Cycle 0: 5 dead checks, 1 violation; census grows by 3 Nodes.
	col := record(0, collector.ReasonAllocFailure, 3)
	col.PhaseStart[collector.PhaseOwnership] = col.Start
	col.OwnershipTime = time.Millisecond
	r.GCBegin(col)
	act[core.KindDead] = core.KindActivity{Checks: 5, Violations: 1}
	snap = heapdump.Snapshot{GC: 0, Types: []heapdump.TypeCensus{
		{TypeName: "Node", Objects: 3, Words: 12},
	}}
	r.GCEnd(col)

	cy := r.Cycles()[0]
	want := []PhaseSpan{{Phase: "ownership", DurNs: 1e6}, {Phase: "mark", DurNs: 5e6}}
	if fmt.Sprint(cy.Phases) != fmt.Sprint(want) {
		t.Errorf("Phases = %+v, want %+v (the record's phases that ran, in order)", cy.Phases, want)
	}
	if len(cy.Kinds) != 1 || cy.Kinds[0] != (KindDelta{Kind: "assert-dead", Checks: 5, Violations: 1}) {
		t.Errorf("Kinds = %+v, want the one active kind", cy.Kinds)
	}
	if len(cy.CensusDelta) != 1 || cy.CensusDelta[0].Objects != 3 || cy.CensusDelta[0].Words != 12 {
		t.Errorf("CensusDelta = %+v", cy.CensusDelta)
	}

	// Cycle 1: Node shrinks to 1 object; the delta must go negative.
	col = record(1, collector.ReasonForced, 1)
	r.GCBegin(col)
	act = [core.NumKinds]core.KindActivity{}
	snap = heapdump.Snapshot{GC: 1, Types: []heapdump.TypeCensus{
		{TypeName: "Node", Objects: 1, Words: 4},
	}}
	r.GCEnd(col)
	cy = r.Cycles()[1]
	if len(cy.CensusDelta) != 1 || cy.CensusDelta[0].Objects != -2 || cy.CensusDelta[0].Words != -8 {
		t.Errorf("shrinking CensusDelta = %+v", cy.CensusDelta)
	}
	if len(cy.Kinds) != 0 {
		t.Errorf("Kinds = %+v for a cycle without assertion activity", cy.Kinds)
	}
}

// TestCensusDeltaIgnoresStaleSnapshot: a census snapshot from an earlier
// cycle (e.g. introspection saw a full GC the flight recorder did not) must
// not be diffed as if it were this cycle's.
func TestCensusDeltaIgnoresStaleSnapshot(t *testing.T) {
	r := New(Config{})
	r.SetCensusSource(func() (heapdump.Snapshot, bool) {
		return heapdump.Snapshot{GC: 3, Types: []heapdump.TypeCensus{{TypeName: "T", Objects: 1}}}, true
	})
	playCycle(r, 7, 1)
	if cy := r.Cycles()[0]; cy.CensusDelta != nil {
		t.Fatalf("stale snapshot produced delta %+v", cy.CensusDelta)
	}
}

type closeBuffer struct {
	bytes.Buffer
	closed bool
}

func (c *closeBuffer) Close() error { c.closed = true; return nil }

func TestViolationTriggeredDump(t *testing.T) {
	r := New(Config{})
	r.SetProfileSource(func() []SiteSample {
		return []SiteSample{{Site: "here", Type: "T", Objects: 1, Bytes: 8}}
	})
	var dumps []*closeBuffer
	r.SetDumpSink(func() (io.WriteCloser, error) {
		b := &closeBuffer{}
		dumps = append(dumps, b)
		return b, nil
	})

	playCycle(r, 0, 1)
	r.RecordViolation(ViolationRecord{GC: 1, Kind: "assert-dead", Site: "here", Report: "Warning: ..."})
	r.RecordViolation(ViolationRecord{GC: 1, Kind: "assert-dead"}) // same cycle: no second dump
	r.RecordViolation(ViolationRecord{GC: 2, Kind: "assert-unshared"})

	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2 (one per violating cycle)", len(dumps))
	}
	if st := r.Stats(); st.Dumps != 2 || st.LastDumpErr != nil {
		t.Fatalf("stats = %+v", st)
	}
	b, err := ReadBundle(bytes.NewReader(dumps[0].Bytes()))
	if err != nil {
		t.Fatalf("dumped bundle does not parse: %v", err)
	}
	if b.Trigger != "violation" || !dumps[0].closed {
		t.Fatalf("trigger = %q, closed = %v", b.Trigger, dumps[0].closed)
	}
	if len(b.Violations) != 1 || b.Violations[0].Site != "here" {
		t.Fatalf("bundle violations = %+v", b.Violations)
	}
	if p, err := ParseProfile(b.HeapProfile); err != nil || len(p.Samples) != 1 {
		t.Fatalf("bundle heap profile: %v / %+v", err, p)
	}
}

// TestRequestDumpDeferredToGCEnd: RequestDump (the SIGQUIT-style hook) must
// not dump immediately — the heap may be inconsistent — but at the end of
// the next collection, once, with trigger "signal".
func TestRequestDumpDeferredToGCEnd(t *testing.T) {
	r := New(Config{})
	var dumps []*closeBuffer
	r.SetDumpSink(func() (io.WriteCloser, error) {
		b := &closeBuffer{}
		dumps = append(dumps, b)
		return b, nil
	})

	r.RequestDump()
	if len(dumps) != 0 {
		t.Fatal("RequestDump dumped before the collection finished")
	}
	playCycle(r, 0, 1)
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps after GCEnd, want 1", len(dumps))
	}
	b, err := ReadBundle(bytes.NewReader(dumps[0].Bytes()))
	if err != nil {
		t.Fatalf("signal bundle does not parse: %v", err)
	}
	if b.Trigger != "signal" || len(b.Cycles) != 1 {
		t.Fatalf("trigger = %q, cycles = %d", b.Trigger, len(b.Cycles))
	}
	playCycle(r, 1, 1)
	if len(dumps) != 1 {
		t.Fatal("request latch did not clear; dumped again without a new request")
	}
}

func TestDumpSinkErrorRetained(t *testing.T) {
	r := New(Config{})
	sinkErr := errors.New("disk full")
	r.SetDumpSink(func() (io.WriteCloser, error) { return nil, sinkErr })
	r.RecordViolation(ViolationRecord{GC: 0, Kind: "assert-dead"})
	if st := r.Stats(); st.Dumps != 0 || !errors.Is(st.LastDumpErr, sinkErr) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r := New(Config{Cycles: 8})
	r.SetProfileSource(func() []SiteSample {
		return []SiteSample{{Site: "s", Type: "T", Objects: 2, Bytes: 64}}
	})
	for i := 0; i < 3; i++ {
		playCycle(r, uint64(i), 50)
	}
	r.RecordViolation(ViolationRecord{GC: 2, Kind: "assert-ownedby", Path: []string{"A.f", "B"}})

	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "test"); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	b, err := ReadBundle(&buf)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.SchemaVersion != SchemaVersion || b.Trigger != "test" {
		t.Fatalf("header = %+v", b)
	}
	if len(b.Cycles) != 3 || b.TotalCycles != 3 {
		t.Fatalf("cycles = %d/%d", len(b.Cycles), b.TotalCycles)
	}
	if len(b.Violations) != 1 || len(b.Violations[0].Path) != 2 {
		t.Fatalf("violations = %+v", b.Violations)
	}
	// The profile survives the JSON round trip byte-for-byte (base64).
	if p, err := ParseProfile(b.HeapProfile); err != nil || p.Samples[0].Values[1] != 64 {
		t.Fatalf("profile after round trip: %v", err)
	}
}

func TestReadBundleRejectsWrongSchema(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte(fmt.Sprintf(`{"schema_version": %d}`, SchemaVersion+1)))); err == nil {
		t.Fatal("ReadBundle accepted a future schema version")
	}
}
