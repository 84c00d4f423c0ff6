package main

import (
	"reflect"
	"testing"
)

// countMetrics are the per-layer counts a later change may rest a claim on:
// they must repeat exactly when a seed is run twice.
var countMetrics = []string{
	"heap.alloc_objs_per_op",
	"heap.alloc_words_per_op",
	"heap.live_words_end",
	"collector.gc_per_kop",
	"collector.marked_objs_per_gc",
	"core.ownees_per_gc",
	"core.assert_calls_per_op",
	"core.violations",
}

func shortCounts(t *testing.T, w workload, seed uint64) map[string]float64 {
	t.Helper()
	res, err := run(w, seed, 3, 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed > 0 || res.rec[sidePrimary].failed > 0 || res.rec[sideBase].failed > 0 {
		t.Fatalf("%s seed %d: oracle failures (%d checks, %d primary ops, %d base ops)",
			w.name, seed, res.failed, res.rec[sidePrimary].failed, res.rec[sideBase].failed)
	}
	layers := res.layers
	out := make(map[string]float64)
	for _, k := range countMetrics {
		v, ok := layers[k]
		if !ok {
			t.Fatalf("%s: per-layer metric %s missing", w.name, k)
		}
		out[k] = v
	}
	return out
}

// TestCountsRepeat runs every workload twice with one seed at the short
// sizes: every count must come out identical.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := shortCounts(t, w, 7), shortCounts(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, different counts:\n%v\n%v", a, b)
			}
		})
	}
}

// TestSeedChangesInputs checks that a different seed gives every workload
// different inputs.
func TestSeedChangesInputs(t *testing.T) {
	a, b := make([]dbOp, dbBatchOps), make([]dbOp, dbBatchOps)
	genBatch(1, 0, a)
	genBatch(2, 0, b)
	if reflect.DeepEqual(a, b) {
		t.Error("embed-db: seeds 1 and 2 generate the same first batch")
	}
	genBatch(1, 0, b)
	if !reflect.DeepEqual(a, b) {
		t.Error("embed-db: seed 1 generates two different first batches")
	}
	if genComp(newRNG(mix(1, 1)), 4096) == genComp(newRNG(mix(2, 1)), 4096) {
		t.Error("gc-trace: seeds 1 and 2 generate the same first component")
	}
	for name, guest := range map[string]func(uint64, bool) string{"svc-guest": guestChurn, "svc-tiny": guestTiny} {
		if guest(1, false) == guest(2, false) {
			t.Errorf("%s: seeds 1 and 2 generate the same guest", name)
		}
		if guest(1, false) != guest(1, false) {
			t.Errorf("%s: seed 1 generates two different guests", name)
		}
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner in
// step: the same workloads, and exactly the metrics the runner prints.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", names, have)
	}
	if r := roundsFor(float64(bj.RunSeconds)); r < 15 || r%(2*setupRepeats) != 0 {
		t.Errorf("run_seconds %d gives %d rounds; want at least 15 and a multiple of %d", bj.RunSeconds, r, 2*setupRepeats)
	}
	res, err := run(workloads[0], 1, 2, 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := res.endToEnd(), res.layers
	if len(bj.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, runner prints %d", len(bj.EndToEnd), len(e2e))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: runner has %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}
	if len(bj.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, runner prints %d", len(bj.PerLayer), len(layers))
	}
	for _, m := range bj.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s is not printed by the runner", m.Name)
		} else if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %s, runner prints %s", m.Name, m.Unit, u)
		}
	}
}

// TestQuietPace checks the quiet-pace rule on a made-up run: ops of equal
// work, every tenth one paused, with the second quarter of the run slowed
// by half and the third by a fifth. The slowed stretches must come out at
// the pace of the undisturbed ones, a pause must stay a pause, and a run
// nobody disturbed must come out as it went in.
func TestQuietPace(t *testing.T) {
	const n = 64 * paceSlice
	calm := make([]float64, n)
	for i := range calm {
		calm[i] = 1000 + float64(i%7)
		if i%10 == 9 {
			calm[i] += 5000
		}
	}
	quiet, slowdown := quietPace(calm)
	if slowdown > 1.001 {
		t.Errorf("an undisturbed run was taken to be slowed by a factor of %v", slowdown)
	}
	disturbed := append([]float64(nil), calm...)
	for i := n / 4; i < n/2; i++ {
		disturbed[i] *= 1.5
	}
	for i := n / 2; i < 3*n/4; i++ {
		disturbed[i] *= 1.2
	}
	quiet, slowdown = quietPace(disturbed)
	for i := range quiet {
		if d := quiet[i]/calm[i] - 1; d > 0.01 || d < -0.01 {
			t.Fatalf("op %d: %v at the quiet pace, %v undisturbed", i, quiet[i], calm[i])
		}
	}
	if want := sum(disturbed) / sum(calm); slowdown < want*0.99 || slowdown > want*1.01 {
		t.Errorf("slowdown %v, want %v", slowdown, want)
	}
}

// TestSelfTime checks the trace's self-time rule on a hand-built tree.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: spOp, Start: 0, End: 100, Parent: -1},
		{Name: spAlloc, Start: 10, End: 30, Parent: 0},
		{Name: spCollect, Start: 40, End: 90, Parent: 0},
		{Name: spAlloc, Start: 50, End: 60, Parent: 2},
	}}
	agg := tr.aggregate()
	for name, want := range map[string]int64{"bench.op": 30, "heap.alloc": 30, "collector.collect": 40} {
		if got := agg[name].SelfNs; got != want {
			t.Errorf("%s self time %d, want %d", name, got, want)
		}
	}
}

// TestPyQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestPyQuartiles(t *testing.T) {
	q1, q3 := pyQuartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
