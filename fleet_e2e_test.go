package gcassert_test

// Fleet forensics end to end: three in-process gcassert instances export
// census envelopes to one collector; two replicas run the identical steady
// workload (their snapshots must dedupe by content hash), the third leaks.
// The cross-instance diff must rank the leaked type first and attribute it
// to exactly the leaking replica.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gcassert"
	"gcassert/internal/fleet"
)

// runFleetReplica runs one instance of the guest workload against the
// collector at url. Every replica defines the same types (so registry refs
// match) and holds a small steady cache; the leaky replica also grows the
// cache every iteration and ends by tripping an assertion, which ships a
// flight bundle with the violation's root path.
func runFleetReplica(t *testing.T, url, id string, leak bool) {
	t.Helper()
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      8 << 20,
		Infrastructure: true,
		Introspection:  true,
		FlightRecorder: true,
		InstanceID:     id,
		FleetURL:       url,
	})
	cache := vm.Define("app/Cache", gcassert.Field{Name: "next", Ref: true})
	node := vm.Define("app/Node", gcassert.Field{Name: "next", Ref: true})
	cacheNext := vm.FieldIndex(cache, "next")
	nodeNext := vm.FieldIndex(node, "next")

	th := vm.NewThread("main")
	fr := th.Push(2)
	head := gcassert.Nil
	grow := func(n int) {
		for i := 0; i < n; i++ {
			c := th.New(cache)
			vm.SetRef(c, cacheNext, head)
			head = c
		}
		fr.Set(0, head)
	}
	grow(8) // the steady retained cache, identical on every replica

	for iter := 0; iter < 6; iter++ {
		if leak {
			grow(16)
		}
		// Transient churn, identical on every replica: allocated, linked,
		// dropped before the collection.
		g := gcassert.Nil
		for i := 0; i < 32; i++ {
			n := th.New(node)
			vm.SetRef(n, nodeNext, g)
			g = n
			fr.Set(1, g)
		}
		fr.Set(1, gcassert.Nil)
		vm.Collect()
	}
	if leak {
		// The leaky replica trips an assertion: head is plainly reachable,
		// so this violation ships a flight bundle whose root path the fleet
		// diff surfaces as the suspect's sample path.
		vm.AssertDead(head)
		vm.Collect()
	}
	vm.CloseFleet() // final drain: everything queued is on the collector now
}

func TestFleetRoundTrip(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	defer ts.Close()

	runFleetReplica(t, ts.URL, "replica-a", false)
	runFleetReplica(t, ts.URL, "replica-b", false)
	runFleetReplica(t, ts.URL, "replica-c", true)

	// The two steady replicas ran byte-identical workloads: their census
	// snapshots must have deduplicated against each other.
	var stats struct {
		fleet.StoreStats
		DedupeRatio float64 `json:"dedupe_ratio"`
	}
	fetchFleetJSON(t, ts.URL+"/fleet/stats", &stats)
	if stats.Ingested == 0 || stats.Unique == 0 {
		t.Fatalf("collector saw nothing: %+v", stats)
	}
	if stats.DedupeRatio <= 0 {
		t.Errorf("identical steady replicas did not dedupe: %+v", stats)
	}
	if stats.Instances != 3 {
		t.Errorf("store instances = %d, want 3", stats.Instances)
	}

	var doc fleet.LeaksDocument
	fetchFleetJSON(t, ts.URL+"/fleet/leaks?top=5", &doc)
	if doc.Instances != 3 {
		t.Errorf("leaks document instances = %d, want 3", doc.Instances)
	}
	if len(doc.Suspects) == 0 {
		t.Fatal("fleet diff found no suspects")
	}
	top := doc.Suspects[0]
	if top.TypeName != "app/Cache" {
		t.Fatalf("top suspect = %q, want app/Cache (all: %s)", top.TypeName, suspectNames(doc))
	}
	if top.InstancesReporting != 3 {
		t.Errorf("suspect reported by %d instances, want 3", top.InstancesReporting)
	}
	if top.InstancesGrowing != 1 {
		t.Errorf("suspect growing on %d instances, want 1", top.InstancesGrowing)
	}
	growing := ""
	for _, it := range top.PerInstance {
		if it.Growing {
			growing = it.InstanceID
		}
	}
	if growing != "replica-c" {
		t.Errorf("growing instance = %q, want replica-c", growing)
	}
	if len(top.SamplePaths) == 0 {
		t.Error("suspect carries no sample root path (violation flight bundle not ingested?)")
	}

	// The transient churn type must not outrank the leak (it may appear with
	// score 0 filtered out, or not at all).
	for _, s := range doc.Suspects[1:] {
		if s.TypeName == "app/Node" && s.Score >= top.Score {
			t.Errorf("churn type app/Node outranks the leak: %+v", s)
		}
	}
}

// TestFleetURLTurnsTheCensusOn: a fleet exporter ships census envelopes,
// so a runtime configured with a collector URL and nothing else still runs
// the census, and one collection stores one census envelope.
func TestFleetURLTurnsTheCensusOn(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	defer ts.Close()

	vm := gcassert.New(gcassert.Options{Infrastructure: true, FleetURL: ts.URL})
	vm.Collect()
	vm.CloseFleet()

	var census int
	for _, m := range store.List() {
		if m.Kind == fleet.KindCensus {
			census++
		}
	}
	if census != 1 {
		t.Fatalf("store holds %d census envelopes, want 1 (exporter stats %+v)", census, vm.FleetExporter().Stats())
	}
}

// TestFleetRegistryRefFollowsDefinedTypes: an envelope's registry ref
// covers the types defined before its collection, not only the builtins
// present when the runtime was created. Two runtimes that define T with
// different fields ship different refs; two that define the same T ship the
// same one.
func TestFleetRegistryRefFollowsDefinedTypes(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	defer ts.Close()

	shipRef := func(id string, fields ...gcassert.Field) string {
		vm := gcassert.New(gcassert.Options{Infrastructure: true, InstanceID: id, FleetURL: ts.URL})
		vm.Define("T", fields...)
		vm.Collect()
		vm.CloseFleet()
		var refs []string
		for _, m := range store.List() {
			if slices.Contains(m.Instances, id) {
				refs = append(refs, m.RegistryRef)
			}
		}
		if len(refs) != 1 {
			t.Fatalf("%s shipped %d envelopes, want 1", id, len(refs))
		}
		return refs[0]
	}
	scalar := shipRef("scalar-a", gcassert.Field{Name: "x"})
	ref := shipRef("ref", gcassert.Field{Name: "x", Ref: true})
	if scalar == ref {
		t.Fatalf("runtimes defining T with different fields shipped the same registry ref %s", ref)
	}
	if again := shipRef("scalar-b", gcassert.Field{Name: "x"}); again != scalar {
		t.Fatalf("runtimes defining the same T shipped refs %s and %s", scalar, again)
	}
}

func fetchFleetJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

func suspectNames(doc fleet.LeaksDocument) string {
	var names []string
	for _, s := range doc.Suspects {
		names = append(names, fmt.Sprintf("%s(%.1f)", s.TypeName, s.Score))
	}
	return strings.Join(names, ", ")
}
