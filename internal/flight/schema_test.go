package flight

import (
	"bytes"
	"strings"
	"testing"

	"gcassert/internal/version"
)

func TestBundleStampedWithIdentity(t *testing.T) {
	r := New(Config{})
	r.SetIdentity(version.NewIdentity("stamp-test"))
	b := r.Bundle("test")
	if b.SchemaVersion != SchemaVersion {
		t.Fatalf("schema = %d, want %d", b.SchemaVersion, SchemaVersion)
	}
	if b.Instance == nil || b.Instance.InstanceID != "stamp-test" {
		t.Fatalf("instance stamp = %+v", b.Instance)
	}
	if b.Instance.Host == "" || b.Instance.PID == 0 {
		t.Fatalf("identity missing host/pid: %+v", b.Instance)
	}

	// Round trip through the wire format.
	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instance == nil || got.Instance.InstanceID != "stamp-test" {
		t.Fatalf("round-tripped instance = %+v", got.Instance)
	}
}

func TestReadBundleAcceptsOlderSchema(t *testing.T) {
	// A schema-1 bundle (pre-identity) still reads; Instance stays nil.
	v1 := `{"schema_version":1,"captured_unix_ns":5,"trigger":"http",
	        "total_cycles":0,"cycles":[],"total_violations":0,"violations":[]}`
	b, err := ReadBundle(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("schema-1 bundle rejected: %v", err)
	}
	if b.Instance != nil {
		t.Fatalf("schema-1 bundle grew an instance stamp: %+v", b.Instance)
	}
}

// Bundles written while the collector had a parallel marker carry workers,
// fallback and per_worker on every cycle. No reader rejects unknown keys, so
// they still read; the keys are dropped.
func TestReadBundleIgnoresRemovedWorkerKeys(t *testing.T) {
	old := `{"schema_version":2,"captured_unix_ns":5,"trigger":"violation",
	         "total_cycles":1,"cycles":[{"gc":7,"reason":"alloc-failure","total_ns":900,
	           "objects_marked":40,"objects_live":38,"workers":2,"fallback":"decider",
	           "per_worker":[{"worker":0,"marked":25,"steals":3,"dur_ns":400},
	                         {"worker":1,"marked":15,"steals":1,"dur_ns":380}]}],
	         "total_violations":0,"violations":[]}`
	b, err := ReadBundle(strings.NewReader(old))
	if err != nil {
		t.Fatalf("bundle with the removed worker keys rejected: %v", err)
	}
	if len(b.Cycles) != 1 || b.Cycles[0].GC != 7 || b.Cycles[0].ObjectsMarked != 40 || b.Cycles[0].ObjectsLive != 38 {
		t.Fatalf("cycle decoded as %+v", b.Cycles)
	}
}

func TestReadBundleRejectsUnknownSchema(t *testing.T) {
	cases := []string{
		`{"schema_version":99}`,
		`{"schema_version":0}`,
		`{}`, // missing version decodes as 0: not a valid bundle
	}
	for _, raw := range cases {
		_, err := ReadBundle(strings.NewReader(raw))
		if err == nil {
			t.Fatalf("bundle %s accepted", raw)
		}
		if !strings.Contains(err.Error(), "schema version") ||
			!strings.Contains(err.Error(), "not supported") {
			t.Fatalf("rejection message unclear: %v", err)
		}
	}
}
