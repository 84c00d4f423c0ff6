// Command benchmark is the repository's benchmark: four workloads that reach
// from a library call on the public gcassert API to an HTTP drive of the
// gcassertd service, each checked against an independent model, with the
// cost of every layer read from outside the program. See README.md.
//
//	bash benchmark/run.sh --workload embed-db --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything before it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

var workloads = []workload{
	{"embed-db", setupDB},
	{"gc-trace", setupGraph},
	{"svc-guest", setupSvcGuest},
	{"svc-tiny", setupSvcTiny},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run: embed-db, gc-trace, svc-guest or svc-tiny")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 16, "nominal length of the measured window: it fixes the number of rounds, each a fixed amount of seeded work")
		trace     = flag.Int("trace", 0, "1 records spans, writes out/trace-<workload>.json and reports the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run every workload this many times and compare each metric's spread with its bound")
	)
	flag.Parse()

	if *selfcheck > 0 {
		return runSelfcheck(*selfcheck, *seed)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	if !(*seconds > 0 && *seconds <= 60) {
		fmt.Fprintf(os.Stderr, "--seconds %v: want a length above 0 and at most 60\n", *seconds)
		return 2
	}
	res, err := run(w, *seed, roundsFor(*seconds), setupRepeats, *trace != 0, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return report(res)
}

// verdict is the machine-readable last line.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnit names the unit of a per-layer metric, from its suffix.
func layerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ns_per_obj", "ns"}, {"_ns_per_ownee", "ns"}, {"_ns", "ns"},
		{"_us_per_gc", "us"}, {"_us_per_req", "us"}, {"_us", "us"},
		{"_ms", "ms"}, {"_pct", "%"}, {"_bytes", "B"}, {"_per_s", "1/s"},
	} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

func report(res *result) int {
	p := res.rec[sidePrimary]
	attempted := p.ops + res.rec[sideBase].ops + res.checks
	failed := p.failed + res.rec[sideBase].failed + res.failed

	fmt.Printf("workload %s  seed %d  rounds %d  window %.2fs  primary ops %d  latency samples %d\n",
		res.workload, res.seed, res.rounds, res.window.Seconds(), p.ops, len(p.lat))
	fmt.Printf("runner nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("env.ref_alu_ms median %.3f iqr %.3f   env.ref_mem_ms median %.3f iqr %.3f (reported, never used to rescale)\n",
		median(res.aluMs), iqr(res.aluMs), median(res.memMs), iqr(res.memMs))
	fmt.Printf("set-ups (s): %.3f\n", res.setups)
	_, slowdown := quietPace(p.lat)
	fmt.Printf("as the clock saw it: ops_per_s %.4f  latency_p50_us %.4f  latency_p99_us %.4f  (%.1f %% slower than the run's quiet pace)\n",
		p.rate(false), quantile(sorted(p.lat), 0.50)/1e3, quantile(sorted(p.lat), 0.99)/1e3, (slowdown-1)*100)
	fmt.Printf("fail_pct %.4f %%  (%d of %d ops and oracle checks)\n", float64(failed)/float64(attempted)*100, failed, attempted)

	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	e2e := res.endToEnd()
	printMetrics := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	printMetrics(e2e)
	out := verdict{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if res.tr != nil {
		layers := make(map[string]metric)
		for k, v := range res.layers {
			layers[k] = metric{v, layerUnit(k)}
		}
		printMetrics(layers)
		out.Metrics = layers
		path := filepath.Join("out", "trace-"+res.workload+".json")
		if err := res.tr.write(path, res.workload, res.seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("trace: %d spans written to benchmark/%s\n", len(res.tr.spans), path)
	}
	if err := res.writeRounds(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	line, err := json.Marshal(&out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// writeRounds stores the per-round series behind the medians — each half's
// wall and collector time, the op count and the two reference kernels — in
// out/rounds-<workload>.json, so a disturbed run can be told from a slow one
// after the fact.
func (res *result) writeRounds() error {
	p, b := res.rec[sidePrimary], res.rec[sideBase]
	doc := map[string]any{
		"workload": res.workload, "seed": res.seed,
		"primary_ns": p.roundNs, "base_ns": b.roundNs,
		"primary_gc_ns": p.roundGCNs, "base_gc_ns": b.roundGCNs,
		"ops": p.roundOps, "traced": p.roundTraced,
		"ref_alu_ms": res.aluMs, "ref_mem_ms": res.memMs,
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "rounds-"+res.workload+".json"), raw, 0o644)
}
