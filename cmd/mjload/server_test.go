package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcassert/internal/assertd"
)

// leakerMJ trips assert-dead once per request; steadyMJ never does.
const (
	leakerMJ = `
class Node { Node next; }
class Main {
  void main() {
    Node n = new Node();
    assertDead(n);
    gc();
  }
}`
	steadyMJ = `
class Node { Node next; }
class Main {
  void main() {
    Node g = null;
    int j = 0;
    while (j < 8) { Node t = new Node(); t.next = g; g = t; j = j + 1; }
    g = null;
    gc();
  }
}`
)

func writeMJ(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func startAssertd(t *testing.T) (*assertd.Server, *httptest.Server) {
	t.Helper()
	s := assertd.NewServer(assertd.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestServerModeUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"server with workload", []string{"-server", "http://x", "-workload", "_209_db"}},
		{"server without program", []string{"-server", "http://x"}},
		{"server with two programs", []string{"-server", "http://x", "a.mj", "b.mj"}},
		{"zero tenants", []string{"-server", "http://x", "-tenants", "0", "prog.mj"}},
		{"zero rps", []string{"-server", "http://x", "-rps", "0", "prog.mj"}},
		{"slo without server", []string{"-slo", "spec.json", "prog.mj"}},
		{"removed -bench-out flag", []string{"-server", "http://x", "-bench-out", "out.json", "prog.mj"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Errorf("run(%v) = %d, want 2\nstderr: %s", tc.args, got, stderr.String())
			}
		})
	}
}

func TestServerModeDataErrors(t *testing.T) {
	prog := writeMJ(t, "ok.mj", steadyMJ)
	// Missing program file, then an unreachable server.
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-server", "http://x", "no-such.mj"}, &stdout, &stderr); got != 1 {
		t.Errorf("missing program = %d, want 1", got)
	}
	stderr.Reset()
	args := []string{"-server", "http://127.0.0.1:1", "-tenants", "1", "-rps", "100", "-n", "1", prog}
	if got := run(args, &stdout, &stderr); got != 1 {
		t.Errorf("unreachable server = %d, want 1\nstderr: %s", got, stderr.String())
	}
}

// TestServerModeLeakerReport drives a real assertd service and checks the
// text report: per-tenant rows, the violation rate, and cleanup (tenants
// deleted without -keep).
func TestServerModeLeakerReport(t *testing.T) {
	s, ts := startAssertd(t)
	prog := writeMJ(t, "leaker.mj", leakerMJ)
	var stdout, stderr bytes.Buffer
	args := []string{"-server", ts.URL, "-tenants", "3", "-prefix", "lk",
		"-rps", "300", "-n", "5", "-heap", "2", prog}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"3 tenant sessions",
		"violations: 15 (1000000.0 per million requests)", // every request violates
		"lk-0", "lk-1", "lk-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d tenants left behind without -keep", n)
	}
}

// TestServerModeKeepAndJSON checks -keep (tenants survive, metrics carry
// their series) and the JSON report shape.
func TestServerModeKeepAndJSON(t *testing.T) {
	s, ts := startAssertd(t)
	prog := writeMJ(t, "steady.mj", steadyMJ)
	var stdout, stderr bytes.Buffer
	args := []string{"-server", ts.URL, "-tenants", "2", "-prefix", "st", "-keep",
		"-rps", "300", "-n", "4", "-heap", "2", "-json", prog}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	var sum serverSummaryJSON
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, stdout.String())
	}
	if sum.Tenants != 2 || sum.Requests != 8 || sum.Violations != 0 ||
		sum.ViolationsPerMillion != 0 || len(sum.PerTenant) != 2 {
		t.Errorf("summary: %+v", sum)
	}
	if sum.Latency.P99Ns <= 0 {
		t.Errorf("no latency tail in summary: %+v", sum.Latency)
	}
	if n := len(s.List()); n != 2 {
		t.Errorf("-keep left %d tenants, want 2", n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), `gcassertd_requests_total{tenant="st-0"} 4`) {
		t.Errorf("metrics missing kept tenant series:\n%s", body.String())
	}
}

// TestServerModeSLOJSON declares an SLO for every provisioned tenant, lets
// the leaker torch the budget, and checks the -json summary: the run's
// counts and latency tail, and per-tenant compliance.
func TestServerModeSLOJSON(t *testing.T) {
	_, ts := startAssertd(t)
	prog := writeMJ(t, "leaker.mj", leakerMJ)
	specPath := filepath.Join(t.TempDir(), "slo.json")
	spec := `{"objectives":[{"kind":"violation_rate","max_per_million":1000}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-server", ts.URL, "-tenants", "2", "-prefix", "slo",
		"-rps", "300", "-n", "5", "-heap", "2", "-json", "-slo", specPath, prog}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}

	var sum serverSummaryJSON
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, stdout.String())
	}
	if sum.Tenants != 2 || sum.Requests != 10 || sum.Violations != 10 {
		t.Errorf("summary counts wrong: %+v", sum)
	}
	if sum.Latency.P99Ns <= 0 {
		t.Errorf("summary missing latency tail: %+v", sum.Latency)
	}
	if len(sum.SLO) != 2 {
		t.Fatalf("summary has %d SLO rows, want 2: %+v", len(sum.SLO), sum.SLO)
	}
	for _, row := range sum.SLO {
		if row.Compliant || row.MinBudgetRemaining != 0 || row.WorstBurn <= 0 {
			t.Errorf("leaker tenant %s should have torched its budget: %+v", row.Tenant, row)
		}
	}
}

// TestServerModeSLOTextReport covers the text rendering of the compliance
// section and the steady (compliant) path.
func TestServerModeSLOTextReport(t *testing.T) {
	_, ts := startAssertd(t)
	prog := writeMJ(t, "steady.mj", steadyMJ)
	specPath := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(specPath,
		[]byte(`{"objectives":[{"kind":"violation_rate","max_per_million":1000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-server", ts.URL, "-tenants", "2", "-prefix", "ok",
		"-rps", "300", "-n", "4", "-heap", "2", "-slo", specPath, prog}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"slo: 2/2 tenants compliant", "ok-0", "budget left 100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestServerModeHundredTenants is the scale acceptance run: ≥100 concurrent
// tenant sessions through a live service, each with its own runtime, with a
// complete per-tenant latency/violation report at the end.
func TestServerModeHundredTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("100-tenant run in -short mode")
	}
	_, ts := startAssertd(t)
	prog := writeMJ(t, "leaker.mj", leakerMJ)
	var stdout, stderr bytes.Buffer
	args := []string{"-server", ts.URL, "-tenants", "100", "-prefix", "scale",
		"-rps", "50", "-n", "3", "-heap", "2", "-json", prog}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	var sum serverSummaryJSON
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Tenants != 100 || len(sum.PerTenant) != 100 {
		t.Fatalf("tenants = %d (%d rows), want 100", sum.Tenants, len(sum.PerTenant))
	}
	if sum.Requests != 300 || sum.TransportErrors != 0 {
		t.Errorf("requests = %d, transport errors = %d: %+v", sum.Requests, sum.TransportErrors, sum)
	}
	if sum.Violations != 300 {
		t.Errorf("violations = %d, want 300 (one per request)", sum.Violations)
	}
	for _, row := range sum.PerTenant {
		if row.Requests != 3 || row.Violations != 3 || row.Latency.P99Ns <= 0 {
			t.Errorf("tenant %s row: %+v", row.Tenant, row)
		}
	}
}
