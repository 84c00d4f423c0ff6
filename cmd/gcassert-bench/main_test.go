package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcassert/internal/bench"
)

// writeRun dumps a synthetic run document for the compare-path tests: base
// trials in ns plus per-trial census overheads, on the named host.
func writeRun(t *testing.T, path, host string, base []int64, overheadPct []float64) {
	t.Helper()
	doc := &bench.RunDoc{
		SchemaVersion: bench.RunSchemaVersion, Trials: len(base), Iterations: 3,
		Runner: bench.RunnerMeta{Host: host, CPUs: 4, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.22"},
	}
	w := bench.WorkloadRun{Name: "_209_db"}
	for i := range base {
		w.BaseTrialsNs = append(w.BaseTrialsNs, base[i])
		w.CensusTrialsNs = append(w.CensusTrialsNs, int64(float64(base[i])*(1+overheadPct[i]/100)))
		w.OverheadTrialsPct = append(w.OverheadTrialsPct, overheadPct[i])
	}
	w.BaseMedianNs = base[len(base)/2]
	w.CensusMedianNs = w.CensusTrialsNs[len(base)/2]
	w.CensusOverheadPct = overheadPct[len(base)/2]
	doc.Workloads = append(doc.Workloads, w)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := doc.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	quiet := filepath.Join(dir, "quiet.json")
	slow := filepath.Join(dir, "slow.json")
	stale := filepath.Join(dir, "stale.json")
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	writeRun(t, quiet, "ci", base, []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9})
	writeRun(t, slow, "ci", base, []float64{31.5, 33.0, 30.2, 32.1, 34.0, 31.0})
	if err := os.WriteFile(stale, []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"version", []string{"-version"}, 0},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"removed -workers flag", []string{"-workers", "2", "-bench", "no-such-workload"}, 2},
		{"unknown figure", []string{"-figure", "7"}, 2},
		{"stray positional", []string{"stray.json"}, 2},
		{"gate without compare", []string{"-gate"}, 2},
		{"compare arity", []string{"-compare", quiet}, 2},
		{"compare missing file", []string{"-compare", quiet, filepath.Join(dir, "nope.json")}, 1},
		{"compare stale schema", []string{"-compare", stale, quiet}, 1},
		{"unknown workload", []string{"-bench", "no-such-workload"}, 1},
		{"compare A/A", []string{"-compare", quiet, quiet}, 0},
		{"compare regression ungated", []string{"-compare", quiet, slow}, 0},
		{"compare regression gated", []string{"-compare", "-gate", quiet, slow}, 3},
		{"compare improvement gated", []string{"-compare", "-gate", slow, quiet}, 0},
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

func TestCompareOutputAAQuiet(t *testing.T) {
	dir := t.TempDir()
	quiet := filepath.Join(dir, "a.json")
	writeRun(t, quiet, "ci",
		[]int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000},
		[]float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9})
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-compare", "-gate", quiet, quiet}, &stdout, &stderr); got != 0 {
		t.Fatalf("A/A gated compare = %d\n%s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no confident regression") {
		t.Errorf("A/A compare should be quiet:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "REGRESSED") {
		t.Errorf("A/A compare shows a regression verdict:\n%s", stdout.String())
	}
}

func TestCompareOutputFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	quiet := filepath.Join(dir, "a.json")
	slow := filepath.Join(dir, "b.json")
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	writeRun(t, quiet, "ci", base, []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9})
	writeRun(t, slow, "ci", base, []float64{31.5, 33.0, 30.2, 32.1, 34.0, 31.0})
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-compare", quiet, slow}, &stdout, &stderr); got != 0 {
		t.Fatalf("ungated compare = %d\n%s", got, stderr.String())
	}
	for _, want := range []string{"census overhead", "REGRESSED", "CONFIDENT REGRESSION"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestBaselineSmoke runs the real probe once, small, and checks the document
// it writes validates and carries the paired trial arrays.
func TestBaselineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a real workload")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-baseline", path, "-bench", "_209_db", "-trials", "2", "-iters", "1"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	doc, err := bench.ReadRunDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	w := doc.Workload("_209_db")
	if w == nil || len(w.BaseTrialsNs) != 2 || len(w.OverheadTrialsPct) != 2 {
		t.Fatalf("baseline doc malformed: %+v", doc)
	}
	if doc.Runner.Fingerprint() != bench.CurrentRunner().Fingerprint() {
		t.Error("baseline not stamped with the current runner")
	}
}
