package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkJSON reads the contract file from the repository root; the
// runner's working directory is the benchmark directory.
func readBenchmarkJSON() (benchmarkJSON, error) {
	var bj benchmarkJSON
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return bj, err
	}
	return bj, json.Unmarshal(raw, &bj)
}

// pyQuartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver applies to its runs.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runSelfcheck runs every workload n times as child processes, round-robin,
// each with its own seed and for BENCHMARK.json's run_seconds, and holds
// every end-to-end metric, setup_s included, to the bound BENCHMARK.json
// declares for it, twice over: the spread of the n values (interquartile
// range over median), and the drift from the median of the first half of
// the runs to that of the second half, the way two sets of runs of one
// commit would be compared. Either one over the bound fails the check.
func runSelfcheck(n int, seed uint64) int {
	bj, err := readBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if n < 5 {
		fmt.Fprintln(os.Stderr, "selfcheck needs at least 5 runs per workload")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for i := 0; i < n; i++ {
		for _, w := range bj.Workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.Itoa(bj.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s run %d: %v\n%s", w.Name, i, err, outBytes)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
			var v verdict
			if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil || !v.Correct {
				fmt.Fprintf(os.Stderr, "%s run %d: bad verdict %s\n", w.Name, i, lines[len(lines)-1])
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for k, m := range v.Metrics {
				values[w.Name][k] = append(values[w.Name][k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d/%d done\n", w.Name, i+1, n)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "| workload | metric | median | spread (IQR/median) | half-to-half drift | bound | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---|\n")
	bad := 0
	for _, w := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			vs := values[w.Name][m.Name]
			q1, q3 := pyQuartiles(vs)
			med := median(vs)
			spread := (q3 - q1) / med
			drift := (median(vs[len(vs)/2:]) - median(vs[:len(vs)/2])) / median(vs[:len(vs)/2])
			worse := drift
			if m.Better == "higher" {
				worse = -drift
			}
			note := "ok"
			switch {
			case spread > m.Bound || worse > m.Bound:
				note = "EXCEEDED"
				bad++
			case spread > m.Bound/2:
				note = "ok (above half)"
			case spread > m.Bound/3:
				note = "ok (above a third)"
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, med, spread*100, drift*100, m.Bound*100, note)
		}
	}
	fmt.Print(b.String())
	if err := os.MkdirAll("out", 0o755); err == nil {
		_ = os.WriteFile("out/selfcheck.md", []byte(b.String()), 0o644) // a copy for the README; the table above is the result
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metrics spread or drifted beyond their bound\n", bad)
		return 1
	}
	return 0
}
