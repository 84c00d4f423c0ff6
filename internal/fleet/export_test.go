package fleet

import (
	"net/http"
	"testing"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/flight"
	"gcassert/internal/heapdump"
	"gcassert/internal/version"
)

// fakeCensus mimics the census ring: Latest returns the snapshot for the
// most recent collection.
type fakeCensus struct {
	snap heapdump.Snapshot
	ok   bool
}

func (f *fakeCensus) latest() (heapdump.Snapshot, bool) { return f.snap, f.ok }

func (f *fakeCensus) advance(gc uint64, words uint64) {
	f.snap = heapdump.Snapshot{
		GC:         gc,
		Reason:     "forced",
		UnixNs:     int64(gc) * 1000,
		TotalWords: words,
		Types:      []heapdump.TypeCensus{{TypeName: "app/T", Objects: words / 4, Words: words}},
	}
	f.ok = true
}

func waitForStore(t *testing.T, store *Store, wantUnique int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if store.Stats().Unique >= wantUnique {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("store never reached %d unique bundles (stats %+v)", wantUnique, store.Stats())
}

func TestExporterIntervalExport(t *testing.T) {
	srv, ts := newTestServer(t)
	census := &fakeCensus{}
	exp := NewExporter(ExportConfig{
		URL:      ts.URL,
		Every:    2,
		Identity: version.NewIdentity("replica-a"),
	})
	exp.SetCensusSource(census.latest)

	// Collections 0 and 2 change the heap, 1 does not; every=2 exports
	// after collections 1 and 3.
	words := []uint64{100, 100, 200, 200}
	for seq := uint64(0); seq < 4; seq++ {
		census.advance(seq, words[seq])
		exp.GCEnd(&collector.Collection{Seq: seq})
	}
	waitForStore(t, srv.Store(), 2)
	// The store holds an envelope before the sender has counted it as sent;
	// Close waits for the sender to finish.
	exp.Close()

	st := exp.Stats()
	if st.Enqueued != 2 || st.Sent != 2 || st.Errors != 0 {
		t.Fatalf("exporter stats = %+v, want 2 enqueued, 2 sent", st)
	}
	metas := srv.Store().List()
	if len(metas) != 2 {
		t.Fatalf("store holds %d bundles, want 2 (snapshots at GC 1 and 3)", len(metas))
	}
	for _, m := range metas {
		if m.Kind != KindCensus {
			t.Fatalf("unexpected kind %q", m.Kind)
		}
		if len(m.Instances) != 1 || m.Instances[0] != "replica-a" {
			t.Fatalf("instances = %v", m.Instances)
		}
	}
}

func TestExporterViolationShipsFlightBundle(t *testing.T) {
	srv, ts := newTestServer(t)
	census := &fakeCensus{}
	exp := NewExporter(ExportConfig{
		URL:      ts.URL,
		Every:    1000, // interval effectively off
		Identity: version.NewIdentity("replica-a"),
	})
	defer exp.Close()
	exp.SetCensusSource(census.latest)
	exp.SetBundleSource(func(trigger string) flight.Bundle {
		return flight.Bundle{
			SchemaVersion: flight.SchemaVersion,
			Trigger:       trigger,
			Violations: []flight.ViolationRecord{
				{TypeName: "app/T", Root: "global:g", Path: []string{"next"}},
			},
		}
	})

	// A quiet collection ships nothing.
	census.advance(0, 100)
	exp.GCEnd(&collector.Collection{Seq: 0})

	// A violation latches: the next GCEnd ships census + flight bundle.
	exp.NoteViolation()
	census.advance(1, 120)
	exp.GCEnd(&collector.Collection{Seq: 1})

	waitForStore(t, srv.Store(), 2)
	kinds := map[string]int{}
	for _, m := range srv.Store().List() {
		kinds[m.Kind]++
	}
	if kinds[KindCensus] != 1 || kinds[KindFlight] != 1 {
		t.Fatalf("stored kinds = %v, want one census + one flight bundle", kinds)
	}
}

func TestExporterIdenticalReplicasDedupe(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, id := range []string{"replica-a", "replica-b"} {
		census := &fakeCensus{}
		exp := NewExporter(ExportConfig{
			URL:      ts.URL,
			Identity: version.NewIdentity(id),
		})
		exp.SetCensusSource(census.latest)
		census.advance(3, 500)
		// Different instances observe at different wall-clock times...
		census.snap.UnixNs = int64(len(id)) * 777
		exp.GCEnd(&collector.Collection{Seq: 3})
		exp.Close() // flushes
	}
	// ...but identical content dedupes to one stored bundle from both.
	st := srv.Store().Stats()
	if st.Unique != 1 || st.Deduped != 1 {
		t.Fatalf("store stats = %+v, want unique=1 deduped=1", st)
	}
	if ids := srv.Store().Instances(); len(ids) != 2 {
		t.Fatalf("instances = %v, want both replicas", ids)
	}
}

func TestExporterExportLatestOnDemand(t *testing.T) {
	srv, ts := newTestServer(t)
	census := &fakeCensus{}
	exp := NewExporter(ExportConfig{
		URL:      ts.URL,
		Every:    1000,
		Identity: version.NewIdentity("replica-a"),
	})
	defer exp.Close()
	exp.SetCensusSource(census.latest)

	if _, err := exp.ExportLatest(); err == nil {
		t.Fatal("want error before any collection has run")
	}
	census.advance(5, 640)
	hash, err := exp.ExportLatest()
	if err != nil {
		t.Fatal(err)
	}
	waitForStore(t, srv.Store(), 1)
	if _, ok := srv.Store().Get(hash); !ok {
		t.Fatalf("on-demand exported hash %s not in store", hash)
	}
}

func TestExporterSurvivesDeadCollector(t *testing.T) {
	census := &fakeCensus{}
	exp := NewExporter(ExportConfig{
		URL:        "http://127.0.0.1:1", // nothing listens here
		QueueLimit: 2,
		Identity:   version.NewIdentity("replica-a"),
		Client:     &http.Client{Timeout: 200 * time.Millisecond},
	})
	exp.SetCensusSource(census.latest)
	for seq := uint64(0); seq < 5; seq++ {
		census.advance(seq, 100+seq)
		exp.GCEnd(&collector.Collection{Seq: seq})
	}
	exp.Close()
	st := exp.Stats()
	if st.Enqueued != 5 {
		t.Fatalf("enqueued = %d, want 5", st.Enqueued)
	}
	if st.Errors == 0 {
		t.Fatal("dead collector produced no send errors")
	}
	if st.LastErr == "" {
		t.Fatal("LastErr empty after failed sends")
	}
}
