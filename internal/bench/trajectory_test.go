package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMeasureBaselineInterleavesAndPairs(t *testing.T) {
	opt := Options{Trials: 3, Iterations: 2}
	doc := MeasureBaseline([]Workload{tinyWorkload()}, opt, nil)
	if err := doc.Validate(); err != nil {
		t.Fatalf("fresh measurement fails its own validation: %v", err)
	}
	if doc.SchemaVersion != RunSchemaVersion {
		t.Errorf("schema version %d, want %d", doc.SchemaVersion, RunSchemaVersion)
	}
	if doc.Runner.CPUs <= 0 || doc.Runner.GoVersion == "" {
		t.Errorf("runner stamp incomplete: %+v", doc.Runner)
	}
	w := doc.Workload("tiny")
	if w == nil {
		t.Fatal("tiny workload missing from doc")
	}
	if len(w.BaseTrialsNs) != 3 || len(w.CensusTrialsNs) != 3 || len(w.OverheadTrialsPct) != 3 {
		t.Fatalf("trial arrays not paired per trial: %+v", w)
	}
	for i := range w.BaseTrialsNs {
		if w.BaseTrialsNs[i] <= 0 || w.CensusTrialsNs[i] <= 0 {
			t.Errorf("trial %d has non-positive time", i)
		}
		// The per-trial overhead must be derived from *this* trial's pair.
		want := 100 * (float64(w.CensusTrialsNs[i])/float64(w.BaseTrialsNs[i]) - 1)
		if diff := w.OverheadTrialsPct[i] - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("trial %d overhead %.4f%% not paired with its own base (%.4f%%)",
				i, w.OverheadTrialsPct[i], want)
		}
	}
	if w.BaseMedianNs <= 0 || w.CensusMedianNs <= 0 {
		t.Error("medians unpopulated")
	}
	if len(doc.AssertCost) != 1 || len(doc.AllocRate) != 1 {
		t.Errorf("auxiliary sections missing: %d/%d",
			len(doc.AssertCost), len(doc.AllocRate))
	}
}

// syntheticRun builds a RunDoc by hand: base trials in ns, per-trial
// overhead percentages, and a runner host (the fingerprint discriminator).
func syntheticRun(host string, base []int64, overheadPct []float64) *RunDoc {
	doc := &RunDoc{
		SchemaVersion: RunSchemaVersion, Trials: len(base), Iterations: 3,
		Runner: RunnerMeta{Host: host, CPUs: 4, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.22"},
	}
	w := WorkloadRun{Name: "_209_db", PauseP99Ns: 1_000_000}
	for i := range base {
		census := int64(float64(base[i]) * (1 + overheadPct[i]/100))
		w.BaseTrialsNs = append(w.BaseTrialsNs, base[i])
		w.CensusTrialsNs = append(w.CensusTrialsNs, census)
		w.OverheadTrialsPct = append(w.OverheadTrialsPct, overheadPct[i])
	}
	w.BaseMedianNs = medianI64(w.BaseTrialsNs)
	w.CensusMedianNs = medianI64(w.CensusTrialsNs)
	w.CensusOverheadPct = medianF(overheadPct)
	doc.Workloads = append(doc.Workloads, w)
	return doc
}

func medianI64(xs []int64) int64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return int64(medianF(f))
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func TestCompareRunsSelfIsQuiet(t *testing.T) {
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	oh := []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9}
	doc := syntheticRun("ci-host", base, oh)
	res := CompareRuns(doc, doc)
	if res.HasRegression() {
		t.Fatalf("A/A comparison reports a regression: %+v", res.Deltas)
	}
	for _, d := range res.Deltas {
		if d.Verdict == VerdictRegressed || d.Verdict == VerdictImproved {
			t.Errorf("A/A metric %s got confident verdict %s (p=%.3f)", d.Metric, d.Verdict, d.P)
		}
	}
}

func TestCompareRunsFlagsInjectedSlowdown(t *testing.T) {
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	oldDoc := syntheticRun("ci-host", base, []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9})
	// The census config got 30% slower relative to base: every trial's
	// overhead jumps with ordinary noise.
	newDoc := syntheticRun("ci-host", base, []float64{31.5, 33.0, 30.2, 32.1, 34.0, 31.0})
	res := CompareRuns(oldDoc, newDoc)
	if !res.HasRegression() {
		t.Fatalf("injected slowdown not flagged: %+v", res.Deltas)
	}
	var found bool
	for _, d := range res.Deltas {
		if d.Metric == "census overhead" && d.Verdict == VerdictRegressed {
			found = true
			if d.P >= compareAlpha {
				t.Errorf("regression verdict with p=%.3f >= alpha", d.P)
			}
		}
	}
	if !found {
		t.Error("census overhead metric should carry the regression verdict")
	}
	// Improvement in the other direction, symmetric machinery.
	res = CompareRuns(newDoc, oldDoc)
	if res.HasRegression() {
		t.Error("overhead *drop* reported as regression")
	}
}

func TestCompareRunsCrossRunnerGatesAbsoluteTimes(t *testing.T) {
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	oh := []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9}
	oldDoc := syntheticRun("laptop", base, oh)
	// Same overheads on a machine half as fast: ns metrics double, but the
	// ratio-based gate must stay quiet.
	slow := make([]int64, len(base))
	for i, b := range base {
		slow[i] = 2 * b
	}
	newDoc := syntheticRun("ci-host", slow, oh)
	res := CompareRuns(oldDoc, newDoc)
	if res.SameRunner {
		t.Fatal("different hosts should not fingerprint-match")
	}
	if res.HasRegression() {
		t.Fatalf("cross-machine ns drift misread as regression: %+v", res.Deltas)
	}
	for _, d := range res.Deltas {
		if d.Unit == "ns" && d.Metric != "pause p99" && d.Verdict != VerdictInfo {
			t.Errorf("cross-runner %s should be informational, got %s", d.Metric, d.Verdict)
		}
	}
	// Same fingerprint: the doubled times must now be called.
	sameOld := syntheticRun("ci-host", base, oh)
	res = CompareRuns(sameOld, newDoc)
	if !res.SameRunner {
		t.Fatal("identical runner meta should fingerprint-match")
	}
	var nsRegressed bool
	for _, d := range res.Deltas {
		if d.Unit == "ns" && d.Verdict == VerdictRegressed {
			nsRegressed = true
		}
	}
	if !nsRegressed {
		t.Errorf("same-runner 2x slowdown not flagged: %+v", res.Deltas)
	}
}

func TestRunDocValidateAndRoundTrip(t *testing.T) {
	doc := syntheticRun("h", []int64{1000, 1100, 1050}, []float64{1, 2, 3})
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := ReadRunDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload("_209_db") == nil || back.Runner.Host != "h" {
		t.Errorf("round trip lost data: %+v", back)
	}

	// Wrong schema version is refused with guidance.
	doc.SchemaVersion = 1
	if err := doc.Validate(); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("stale schema accepted: %v", err)
	}
	doc.SchemaVersion = RunSchemaVersion
	// Unpaired arrays are refused.
	doc.Workloads[0].CensusTrialsNs = doc.Workloads[0].CensusTrialsNs[:2]
	if err := doc.Validate(); err == nil || !strings.Contains(err.Error(), "unpaired") {
		t.Errorf("unpaired arrays accepted: %v", err)
	}
}

func TestPrintCompareRendersVerdicts(t *testing.T) {
	base := []int64{10_000_000, 10_200_000, 9_900_000, 10_100_000, 10_050_000, 9_950_000}
	oldDoc := syntheticRun("ci-host", base, []float64{2.0, 2.3, 1.8, 2.1, 2.2, 1.9})
	newDoc := syntheticRun("ci-host", base, []float64{31.5, 33.0, 30.2, 32.1, 34.0, 31.0})
	var b bytes.Buffer
	PrintCompare(&b, oldDoc, newDoc, CompareRuns(oldDoc, newDoc))
	out := b.String()
	for _, want := range []string{"runner match: yes", "census overhead", "REGRESSED", "CONFIDENT REGRESSION"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}
