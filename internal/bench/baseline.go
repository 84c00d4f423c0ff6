package bench

import (
	"fmt"
	"io"
	"time"

	"gcassert"
	"gcassert/internal/stats"
)

// measureTrial runs one trial of the workload on a fresh runtime — warmup
// iterations, then one timed iteration — and returns the measured time and
// the runtime for stats inspection.
func measureTrial(w Workload, opt Options, mkOpts func() gcassert.Options) (time.Duration, *gcassert.Runtime) {
	vm := gcassert.New(mkOpts())
	run := w.New(vm, false)
	for i := 0; i < opt.Iterations-1; i++ {
		run(i)
	}
	start := time.Now()
	run(opt.Iterations - 1)
	return time.Since(start), vm
}

// measureWorkload produces one workload's baseline record. The two
// configurations are interleaved *within* each trial — base then census,
// back to back — so machine-performance drift over the run lands equally on
// both sides of every paired ratio. Measuring all base trials first and all
// census trials after (the seed's method) let minutes of drift masquerade as
// configuration overhead, including the impossible negative overheads the
// seed baseline recorded.
func measureWorkload(w Workload, opt Options, progress io.Writer) WorkloadRun {
	wr := WorkloadRun{Name: w.Name}
	var censusVM *gcassert.Runtime
	for trial := 0; trial < opt.Trials; trial++ {
		base, _ := measureTrial(w, opt, func() gcassert.Options {
			return gcassert.Options{HeapBytes: w.Heap}
		})
		census, vm := measureTrial(w, opt, func() gcassert.Options {
			return gcassert.Options{HeapBytes: w.Heap, Telemetry: true, Introspection: true}
		})
		censusVM = vm
		wr.BaseTrialsNs = append(wr.BaseTrialsNs, base.Nanoseconds())
		wr.CensusTrialsNs = append(wr.CensusTrialsNs, census.Nanoseconds())
		wr.OverheadTrialsPct = append(wr.OverheadTrialsPct,
			100*(float64(census)/float64(base)-1))
	}

	baseF := make([]float64, len(wr.BaseTrialsNs))
	censusF := make([]float64, len(wr.CensusTrialsNs))
	for i := range wr.BaseTrialsNs {
		baseF[i] = float64(wr.BaseTrialsNs[i])
		censusF[i] = float64(wr.CensusTrialsNs[i])
	}
	wr.BaseMedianNs = int64(stats.Median(baseF))
	wr.CensusMedianNs = int64(stats.Median(censusF))
	wr.CensusOverheadPct = stats.Median(wr.OverheadTrialsPct)
	wr.BaseSpreadPct = stats.SpreadPct(baseF)
	wr.CensusSpreadPct = stats.SpreadPct(censusF)

	// Telemetry of the final census trial: pause percentiles and the
	// census/live-words cross-check.
	h := censusVM.Telemetry().PauseHistogram()
	wr.PauseP50Ns = h.Quantile(0.5).Nanoseconds()
	wr.PauseP99Ns = h.Quantile(0.99).Nanoseconds()
	wr.PauseP999Ns = h.Quantile(0.999).Nanoseconds()
	wr.PauseMaxNs = h.Max().Nanoseconds()
	wr.Collections = censusVM.GCStats().Collections
	censusVM.Collect()
	if snap, ok := censusVM.LatestCensus(); ok {
		wr.CensusLiveWords = snap.TotalCellWords
		wr.LiveWordsMatch = snap.TotalCellWords == censusVM.HeapStats().LiveWords
	}
	if progress != nil {
		fmt.Fprintf(progress, "  %-12s base %v, census %v (spread %.1f%%/%.1f%%), overhead %+.2f%%\n",
			w.Name, time.Duration(wr.BaseMedianNs), time.Duration(wr.CensusMedianNs),
			wr.BaseSpreadPct, wr.CensusSpreadPct, wr.CensusOverheadPct)
	}
	return wr
}

// measureAttribution runs one workload with its assertions armed and cost
// attribution on, folding the run's telemetry events into cumulative
// per-kind cost rows and the closing pressure snapshot.
func measureAttribution(w Workload, opt Options) (AssertCostRun, AllocRateRun) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes: w.Heap, Infrastructure: true,
		Telemetry: true, CostAttribution: true,
	})
	run := w.New(vm, true)
	for i := 0; i < opt.Iterations; i++ {
		run(i)
	}
	vm.Collect()

	cost := AssertCostRun{Name: w.Name}
	checks := map[string]uint64{}
	ns := map[string]int64{}
	var order []string
	for _, ev := range vm.Telemetry().Events() {
		cost.TotalGC += ev.TotalNs
		for _, c := range ev.Costs {
			if _, seen := checks[c.Kind]; !seen {
				order = append(order, c.Kind)
			}
			checks[c.Kind] += c.Checks
			ns[c.Kind] += c.Ns
		}
	}
	for _, kind := range order {
		p := CostKindPoint{Kind: kind, Checks: checks[kind], Ns: ns[kind]}
		if cost.TotalGC > 0 {
			p.PctGC = 100 * float64(p.Ns) / float64(cost.TotalGC)
		}
		cost.Kinds = append(cost.Kinds, p)
	}

	rate := AllocRateRun{Name: w.Name}
	if pr, ok := vm.Pressure(); ok {
		rate.AllocRateWps = pr.AllocRateWps
		rate.OccupancySamples = len(pr.Occupancy)
		if n := len(pr.Occupancy); n > 0 {
			rate.FinalOccupancyPct = pr.Occupancy[n-1].Pct
		}
		rate.Threads = len(pr.Threads)
	}
	return cost, rate
}

// MeasureBaseline measures the assertion-bearing workloads of suite with
// base/census interleaving and returns the versioned run document, stamped
// with the current runner. progress receives human-readable status lines
// (nil for silence).
func MeasureBaseline(suite []Workload, opt Options, progress io.Writer) *RunDoc {
	doc := &RunDoc{
		SchemaVersion: RunSchemaVersion,
		GeneratedUnix: time.Now().Unix(),
		Trials:        opt.Trials,
		Iterations:    opt.Iterations,
		Runner:        CurrentRunner(),
	}
	for _, w := range suite {
		if !w.HasAsserts {
			continue // the baseline tracks the paper's featured workloads
		}
		if progress != nil {
			fmt.Fprintf(progress, "baseline %-12s (%d trials x %d iters, base/census interleaved)\n",
				w.Name, opt.Trials, opt.Iterations)
		}
		doc.Workloads = append(doc.Workloads, measureWorkload(w, opt, progress))
	}
	for _, w := range suite {
		if !w.HasAsserts {
			continue
		}
		if progress != nil {
			fmt.Fprintf(progress, "attribution %-12s (assertions + cost accounting)\n", w.Name)
		}
		cost, rate := measureAttribution(w, opt)
		doc.AssertCost = append(doc.AssertCost, cost)
		doc.AllocRate = append(doc.AllocRate, rate)
	}
	return doc
}
