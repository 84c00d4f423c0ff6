package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	badMJ := filepath.Join(t.TempDir(), "bad.mj")
	if err := os.WriteFile(badMJ, []byte("class {"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"removed -workers flag", []string{"-workers", "2", badMJ}, 2},
		{"program and workload together", []string{"-workload", "_209_db", "prog.mj"}, 2},
		{"two programs", []string{"a.mj", "b.mj"}, 2},
		{"zero rps", []string{"-rps", "0", "prog.mj"}, 2},
		{"heap an Addr cannot address", []string{"-heap", "8192", badMJ}, 2},
		{"zero requests", []string{"-n", "0", "prog.mj"}, 2},
		{"missing program", []string{"no-such-program.mj"}, 1},
		{"compile error", []string{badMJ}, 1},
		{"unknown workload", []string{"-workload", "no-such-workload"}, 1},
		{"version", []string{"-version"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}

func TestRunVersionPrintsIdentity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-version"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-version) = %d, stderr: %s", got, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "mjload ") {
		t.Errorf("version output %q should start with the tool name", stdout.String())
	}
}

// TestRunFleetsteady is the tentpole acceptance path: drive the example MJ
// program at a fixed rate and get SLO quantiles with pause attribution. The
// program forces collections itself, so the attribution tables are never
// empty.
func TestRunFleetsteady(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-rps", "500", "-n", "30", "-slowest", "2", "../../examples/mj/fleetsteady.mj"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"requests: 30 @ 500 rps target",
		"p50", "p99", "p999",
		"GC:", "by trigger:", "slowest requests:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunWorkloadJSON drives a bench workload and checks the machine-readable
// report: quantiles populated, attribution attached.
func TestRunWorkloadJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "_209_db", "-n", "5", "-rps", "200", "-json"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	var sum summaryJSON
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if sum.Requests != 5 || sum.TargetRPS != 200 {
		t.Errorf("summary pacing = %d req @ %g rps, want 5 @ 200", sum.Requests, sum.TargetRPS)
	}
	if sum.Latency.MaxNs <= 0 || sum.Latency.P50Ns <= 0 {
		t.Errorf("latency quantiles unpopulated: %+v", sum.Latency)
	}
	if sum.Attribution == nil {
		t.Error("attribution missing from JSON summary")
	}
}
