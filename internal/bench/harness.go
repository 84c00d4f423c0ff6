// Package bench is the evaluation harness reproducing the paper's
// performance methodology (§3.1.1): each benchmark runs in three
// configurations —
//
//   - Base: unmodified collector, no assertion infrastructure;
//   - Infrastructure: assertion infrastructure enabled, no assertions added;
//   - WithAssertions: infrastructure plus the benchmark's own assertions
//     (only _209_db and pseudojbb define them, as in the paper);
//
// iterates each benchmark several times and measures the final iteration,
// repeats that for a number of trials, and reports total / mutator / GC time
// with 90% confidence intervals, normalized to Base.
package bench

import (
	"fmt"
	"time"

	"gcassert"
	"gcassert/internal/stats"
)

// Mode is a measurement configuration.
type Mode int

// Configurations, in the paper's order.
const (
	// Base runs the unmodified collector.
	Base Mode = iota
	// Infra enables the assertion infrastructure without any assertions.
	Infra
	// WithAssertions enables the infrastructure and the workload's own
	// assertions.
	WithAssertions
)

func (m Mode) String() string {
	switch m {
	case Base:
		return "Base"
	case Infra:
		return "Infrastructure"
	case WithAssertions:
		return "WithAssertions"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Workload is one benchmark program.
type Workload struct {
	// Name is the benchmark's name (DaCapo / SPEC style).
	Name string
	// Heap is the managed heap size for the runs (the paper fixes the heap
	// at 2× the minimum for each benchmark).
	Heap int
	// New binds a fresh instance of the workload to the runtime and returns
	// the function that executes one full iteration. When asserts is true
	// the workload registers its GC assertions (only meaningful on an
	// infrastructure-mode runtime).
	New func(vm *gcassert.Runtime, asserts bool) func(iter int)
	// HasAsserts marks workloads that define a WithAssertions variant.
	HasAsserts bool
}

// Options controls a harness run.
type Options struct {
	// Trials is the number of independent trials (paper: 20).
	Trials int
	// Iterations per trial; the last is the measured one (paper: 4).
	Iterations int
}

// DefaultOptions returns a scaled-down version of the paper's methodology
// suitable for quick runs: 5 trials of 3 iterations.
func DefaultOptions() Options { return Options{Trials: 5, Iterations: 3} }

// PaperOptions returns the paper's full methodology: 20 trials, 4 iterations.
func PaperOptions() Options { return Options{Trials: 20, Iterations: 4} }

// Result holds the measurements of one workload in one mode.
type Result struct {
	Workload string
	Mode     Mode
	// Total, Mutator and GC are per-trial times (seconds) of the measured
	// iteration.
	Total   stats.Sample
	Mutator stats.Sample
	GC      stats.Sample
	// Collections is the mean number of collections in the measured
	// iteration.
	Collections stats.Sample
	// TotalCollections is the final trial's whole-run collection count.
	TotalCollections uint64
	// Assertion activity of the final trial (WithAssertions only).
	AssertStats gcassert.AssertStats
}

// OwneesCheckedPerGC reports the paper's "ownee objects checked per GC"
// metric for a WithAssertions result.
func (r *Result) OwneesCheckedPerGC() float64 {
	if r.TotalCollections == 0 {
		return 0
	}
	return float64(r.AssertStats.OwneesChecked) / float64(r.TotalCollections)
}

// runTrial executes one trial — fresh runtime, warmup iterations, one
// measured iteration — and records it into res.
func runTrial(w Workload, mode Mode, opt Options, res *Result) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      w.Heap,
		Infrastructure: mode != Base,
	})
	run := w.New(vm, mode == WithAssertions)
	for i := 0; i < opt.Iterations-1; i++ {
		run(i)
	}
	gcBefore := vm.GCStats()
	start := time.Now()
	run(opt.Iterations - 1)
	total := time.Since(start)
	gcAfter := vm.GCStats()
	gcTime := gcAfter.TotalGCTime - gcBefore.TotalGCTime
	res.Total.AddDuration(total)
	res.GC.AddDuration(gcTime)
	res.Mutator.AddDuration(total - gcTime)
	res.Collections.Add(float64(gcAfter.Collections - gcBefore.Collections))
	res.TotalCollections = gcAfter.Collections
	if mode == WithAssertions {
		res.AssertStats = vm.AssertionStats()
	}
}

// Run measures one workload in one mode for all trials.
func Run(w Workload, mode Mode, opt Options) Result {
	res := Result{Workload: w.Name, Mode: mode}
	for trial := 0; trial < opt.Trials; trial++ {
		runTrial(w, mode, opt, &res)
	}
	return res
}

// Comparison is the Base-normalized view of one workload across modes.
type Comparison struct {
	Workload string
	// Results by mode; WithAssertions may be absent.
	Results map[Mode]*Result
}

// Normalized returns the given metric of mode normalized to Base. When the
// trials were collected interleaved (Compare does this), the two samples
// are paired — trial i of every mode ran under the same machine conditions
// — and the median of per-trial ratios is returned, which is robust to the
// time-varying performance of shared hardware. With unpaired samples it
// falls back to the ratio of means.
func (c *Comparison) Normalized(mode Mode, metric func(*Result) *stats.Sample) float64 {
	base, ok1 := c.Results[Base]
	r, ok2 := c.Results[mode]
	if !ok1 || !ok2 {
		return 0
	}
	bs, ms := metric(base).Values(), metric(r).Values()
	if len(bs) == len(ms) && len(bs) > 0 {
		ratios := make([]float64, 0, len(bs))
		for i := range bs {
			if bs[i] > 0 {
				ratios = append(ratios, ms[i]/bs[i])
			}
		}
		if len(ratios) > 0 {
			return stats.Median(ratios)
		}
	}
	return stats.Ratio(metric(r), metric(base))
}

// Metric selectors for Comparison.Normalized.
var (
	// TotalTime selects total execution time.
	TotalTime = func(r *Result) *stats.Sample { return &r.Total }
	// MutatorTime selects mutator (non-GC) time.
	MutatorTime = func(r *Result) *stats.Sample { return &r.Mutator }
	// GCTime selects collector time.
	GCTime = func(r *Result) *stats.Sample { return &r.GC }
)

// Compare runs the workload in the given modes, interleaving the modes
// within each trial so that machine-performance drift affects all modes
// equally (the per-trial measurements are then paired for Normalized).
func Compare(w Workload, modes []Mode, opt Options) *Comparison {
	c := &Comparison{Workload: w.Name, Results: make(map[Mode]*Result)}
	var active []Mode
	for _, m := range modes {
		if m == WithAssertions && !w.HasAsserts {
			continue
		}
		active = append(active, m)
		c.Results[m] = &Result{Workload: w.Name, Mode: m}
	}
	for trial := 0; trial < opt.Trials; trial++ {
		for _, m := range active {
			runTrial(w, m, opt, c.Results[m])
		}
	}
	return c
}
