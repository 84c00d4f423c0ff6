package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gcassert"
)

// Sides of a round. Every round runs the identical seeded op sequence on
// the base side first and then on the primary side; throughput and latency
// are read from the primary side, and the two *_ratio_vs_base metrics pair
// the two halves of each round, so machine speed divides out of them.
const (
	sideBase = iota
	sidePrimary
)

// counters are cumulative per-layer counts and times, read from outside the
// program (GCStats, HeapStats, AssertionStats, tenant GC events) at the
// boundaries of a half-round.
type counters struct {
	GCs                          uint64
	GCNs, OwnNs, MarkNs, SweepNs int64
	Marked, Freed, Roots         uint64
	AllocObjs, AllocWords        uint64
	Ownees, AssertCalls          uint64
	Violations                   uint64
	// LiveWords is a gauge, not a running total: the heap's live words now.
	LiveWords uint64
}

func (a counters) sub(b counters) counters {
	return counters{
		GCs: a.GCs - b.GCs, GCNs: a.GCNs - b.GCNs, OwnNs: a.OwnNs - b.OwnNs,
		MarkNs: a.MarkNs - b.MarkNs, SweepNs: a.SweepNs - b.SweepNs,
		Marked: a.Marked - b.Marked, Freed: a.Freed - b.Freed, Roots: a.Roots - b.Roots,
		AllocObjs: a.AllocObjs - b.AllocObjs, AllocWords: a.AllocWords - b.AllocWords,
		Ownees: a.Ownees - b.Ownees, AssertCalls: a.AssertCalls - b.AssertCalls,
		Violations: a.Violations - b.Violations,
	}
}

func (a *counters) add(b counters) {
	a.GCs += b.GCs
	a.GCNs += b.GCNs
	a.OwnNs += b.OwnNs
	a.MarkNs += b.MarkNs
	a.SweepNs += b.SweepNs
	a.Marked += b.Marked
	a.Freed += b.Freed
	a.Roots += b.Roots
	a.AllocObjs += b.AllocObjs
	a.AllocWords += b.AllocWords
	a.Ownees += b.Ownees
	a.AssertCalls += b.AssertCalls
	a.Violations += b.Violations
}

// sideRec accumulates what one side did over the measured window.
type sideRec struct {
	lat      []float64 // per-op latency (ns), untraced rounds only
	pauses   []float64 // per-collection pause (ns)
	gcHitOps int       // ops during which at least one collection ran
	ops      int
	busyNs   int64 // time spent inside ops, traced or not
	failed   int   // ops that errored or disagreed with the model
	mallocs  uint64
	total    counters
	// liveWords is the heap's live words after the side's last half.
	liveWords uint64

	// Per round: time inside ops and collector time of this side's half,
	// its op count, and whether the round was traced.
	roundNs, roundGCNs, roundOps []float64
	roundTraced                  []bool

	// series holds a workload's own per-op samples by name.
	series map[string][]float64
}

// sample appends one value to a named per-op series.
func (r *sideRec) sample(name string, v float64) {
	if r.series == nil {
		r.series = make(map[string][]float64)
	}
	r.series[name] = append(r.series[name], v)
}

// rate is the side's throughput as the clock saw it, over its traced or its
// untraced rounds: ops done divided by the time spent inside them. It is
// taken over the whole window, not as a median of per-round rates: a round
// holds only a few collections, so a per-round rate jumps with whether it
// caught one more or one fewer.
func (r *sideRec) rate(traced bool) float64 {
	var ops, ns float64
	for i := range r.roundNs {
		if r.roundTraced[i] == traced {
			ops += r.roundOps[i]
			ns += r.roundNs[i]
		}
	}
	return div(ops, ns/1e9)
}

// op records one finished op: its latency and whether the model agreed.
func (r *sideRec) op(ns int64, ok, traced bool) {
	if !traced {
		r.lat = append(r.lat, float64(ns))
	}
	r.busyNs += ns
	r.ops++
	if !ok {
		r.failed++
	}
}

// instance is one fully set-up workload: runtimes or server built, inputs
// generated, populated to steady state and warmed.
type instance interface {
	// half runs round r's op sequence on one side, recording each op.
	half(side, round int, rec *sideRec, tr *tracer)
	// counters reads the side's cumulative layer counters.
	counters(side int) counters
	// layers adds the workload's own per-layer metrics to out, from the
	// series its halves sampled into the two sides' records.
	layers(out map[string]float64, rec [2]*sideRec, tr *tracer)
	// epilogue runs the end-of-run oracle and the planted-bug check. It
	// returns the checks made, how many failed, and the violations the
	// planted bugs produced.
	epilogue() (checks, failed int, violations uint64)
	close()
}

// workload names a workload and builds its instances. Why each one exists
// is recorded in BENCHMARK.json and the README.
type workload struct {
	name  string
	setup func(seed uint64, short bool) (instance, error)
}

// runtimeCounters reads a library workload's counters from the runtime's
// public stats. Roots scanned and Assert* calls are not kept by the runtime,
// so the workload counts them itself.
func runtimeCounters(vm *gcassert.Runtime, roots, asserted uint64) counters {
	gc, hs, as := vm.GCStats(), vm.HeapStats(), vm.AssertionStats()
	return counters{
		GCs: gc.Collections, GCNs: gc.TotalGCTime.Nanoseconds(),
		OwnNs: gc.OwnershipTime.Nanoseconds(), MarkNs: gc.MarkTime.Nanoseconds(),
		SweepNs: gc.SweepTime.Nanoseconds(), Marked: gc.ObjectsMarked, Freed: gc.ObjectsFreed,
		Roots: roots, AllocObjs: hs.ObjectsAllocated, AllocWords: hs.WordsAllocated,
		Ownees: as.OwneesChecked, AssertCalls: asserted, Violations: as.Violations,
		LiveWords: hs.LiveWords,
	}
}

// checker counts oracle checks and prints the ones that fail.
type checker struct {
	name           string
	checks, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failed++
		fmt.Printf("FAIL %s: %s\n", c.name, fmt.Sprintf(format, args...))
	}
}

// result is everything one run measured.
type result struct {
	workload  string
	seed      uint64
	setups    []float64 // seconds, one per complete set-up
	rec       [2]*sideRec
	rounds    int
	window    time.Duration
	aluMs     []float64
	memMs     []float64
	tr        *tracer
	checks    int
	failed    int
	planted   uint64             // violations one instance's planted bugs produced
	layers    map[string]float64 // the per-layer metrics
	peakRSSMB float64
}

// setupRepeats is how many complete set-ups a run makes; setup_s is their
// median. All of them stay alive and the measured rounds rotate over them:
// how fast a runtime's heap is depends on which physical pages it happened
// to get, differently for the base and the primary side of one instance,
// and that draw holds for the whole life of the process. Rotating averages
// five draws inside every run. Nothing is torn down before the run ends, so
// the process's peak memory is the sum of what the set-ups allocated and
// does not depend on when the Go collector ran.
const setupRepeats = 5

// roundSeconds is what one round (both sides) takes on the box the
// workloads were sized on. The work of a run is fixed: --seconds only
// chooses how many such rounds it is made of, once, before the run starts.
// The count is a multiple of 2*setupRepeats so that every instance gets the
// same number of rounds, traced and untraced.
const roundSeconds = 0.8

func roundsFor(seconds float64) int {
	const step = 2 * setupRepeats
	return step * max(1, int(seconds/(step*roundSeconds)+0.5))
}

// run performs a whole benchmark run of one workload: repeats set-ups, then
// rounds rounds of fixed seeded work.
func run(w workload, seed uint64, rounds, repeats int, traced, short bool) (*result, error) {
	res := &result{workload: w.name, seed: seed, rec: [2]*sideRec{{}, {}}}
	if traced {
		res.tr = newTracer()
	}
	var insts []instance
	defer func() {
		for _, inst := range insts {
			inst.close()
		}
	}()
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		inst, err := w.setup(seed, short)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		insts = append(insts, inst)
	}

	ref := newRefKernels(seed)
	runtime.GC()

	start := time.Now()
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		// Rounds rotate over the instances; tracing switches once per
		// rotation, so a traced round and the untraced round one rotation
		// earlier ran on the same instance.
		inst := insts[r%len(insts)]
		var tr *tracer
		if traced && (r/len(insts))%2 == 1 {
			tr = res.tr
		}
		for side := sideBase; side <= sidePrimary; side++ {
			rec := res.rec[side]
			c0 := inst.counters(side)
			ops0 := rec.ops
			if side == sidePrimary {
				runtime.ReadMemStats(&ms)
				rec.mallocs -= ms.Mallocs
			}
			busy0 := rec.busyNs
			inst.half(side, r, rec, tr)
			if side == sidePrimary {
				runtime.ReadMemStats(&ms)
				rec.mallocs += ms.Mallocs
			}
			c1 := inst.counters(side)
			d := c1.sub(c0)
			rec.total.add(d)
			rec.liveWords = c1.LiveWords
			rec.roundNs = append(rec.roundNs, float64(rec.busyNs-busy0))
			rec.roundGCNs = append(rec.roundGCNs, float64(d.GCNs))
			rec.roundOps = append(rec.roundOps, float64(rec.ops-ops0))
			rec.roundTraced = append(rec.roundTraced, tr != nil)
		}
		a, m := ref.run()
		res.aluMs = append(res.aluMs, a)
		res.memMs = append(res.memMs, m)
	}
	res.rounds = rounds
	res.window = time.Since(start)

	for _, inst := range insts {
		checks, failed, planted := inst.epilogue()
		res.checks += checks
		res.failed += failed
		res.planted = planted
	}
	res.peakRSSMB = peakRSSMB()
	res.layers = res.perLayer(insts[len(insts)-1])
	return res, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of a run. Only untraced rounds
// count, so a traced run's figures are comparable with an untraced run's.
// Throughput and the latency percentiles are read at the run's quiet pace
// (see quietPace); the same three as the clock saw them are per-layer
// metrics, bench.raw_*.
func (res *result) endToEnd() map[string]metric {
	p, b := res.rec[sidePrimary], res.rec[sideBase]
	var totalRatio, gcRatio []float64
	for i := range p.roundNs {
		if p.roundTraced[i] {
			continue
		}
		totalRatio = append(totalRatio, p.roundNs[i]/b.roundNs[i])
		if b.roundGCNs[i] > 0 {
			gcRatio = append(gcRatio, p.roundGCNs[i]/b.roundGCNs[i])
		}
	}
	quiet, _ := quietPace(p.lat)
	lat := sorted(quiet)
	return map[string]metric{
		"setup_s":             {median(res.setups), "s"},
		"ops_per_s":           {float64(len(quiet)) / (sum(quiet) / 1e9), "1/s"},
		"latency_p50_us":      {quantile(lat, 0.50) / 1e3, "us"},
		"latency_p99_us":      {quantile(lat, 0.99) / 1e3, "us"},
		"peak_rss_mb":         {res.peakRSSMB, "MB"},
		"host_allocs_per_op":  {float64(p.mallocs) / float64(p.ops), "count"},
		"total_ratio_vs_base": {median(totalRatio), "ratio"},
		"gc_ratio_vs_base":    {median(gcRatio), "ratio"},
	}
}

// paceSlice is how many consecutive ops share one estimate of how much the
// machine's neighbours slowed them: long enough for a lower quartile that a
// collection or two inside the slice cannot move, short enough (half a
// millisecond to a tenth of a second, by workload) to fall between bursts.
const paceSlice = 16

// quietPace returns the latencies of a side's ops, in the order they ran,
// as they would have been had the whole run gone at the pace of its least
// disturbed stretch, and the factor by which the run as a whole was slower
// than that.
//
// The box the benchmark was written on shares its cores with other guests.
// Their load slows a run by anything up to a factor of two, in bursts of
// milliseconds inside phases of minutes, so that ten runs of one binary
// spread 10-40 % in every wall-clock figure. But even in the worst phase
// some stretch of a few milliseconds goes undisturbed, and the pace of
// that stretch repeats from run to run within a few percent. So the ops
// are cut into slices of paceSlice; a slice's pace is the lower quartile of
// its latencies, which ops that caught a collection do not reach; the
// fastest slice sets the quiet pace; and every latency is divided by its
// own slice's pace over the quiet pace. Nothing outside the side's own
// latencies enters, and no latency is ever scaled up.
func quietPace(lat []float64) (quiet []float64, slowdown float64) {
	n := len(lat) / paceSlice
	if n < 2 {
		return lat, 1
	}
	// Slice i covers ops [i*paceSlice, (i+1)*paceSlice); the last one takes
	// the remainder too.
	end := func(i int) int {
		if i == n-1 {
			return len(lat)
		}
		return (i + 1) * paceSlice
	}
	pace := make([]float64, n)
	for i := range pace {
		pace[i] = quantile(sorted(lat[i*paceSlice:end(i)]), 0.25)
	}
	best := slices.Min(pace)
	quiet = make([]float64, len(lat))
	for i, p := range pace {
		f := 1.0
		if p > 0 {
			f = best / p
		}
		for j := i * paceSlice; j < end(i); j++ {
			quiet[j] = lat[j] * f
		}
	}
	return quiet, div(sum(lat), sum(quiet))
}

// perLayer computes the per-layer metrics. Counts come from every round;
// times that need spans come from the traced rounds.
func (res *result) perLayer(inst instance) map[string]float64 {
	p := res.rec[sidePrimary]
	c := p.total
	ops := float64(p.ops)
	gcs := float64(c.GCs)
	var primaryNs float64
	for _, ns := range p.roundNs {
		primaryNs += ns
	}
	_, slowdown := quietPace(p.lat)
	out := map[string]float64{
		"heap.alloc_objs_per_op":           float64(c.AllocObjs) / ops,
		"heap.alloc_words_per_op":          float64(c.AllocWords) / ops,
		"heap.live_words_end":              float64(p.liveWords),
		"heap.sweep_us_per_gc":             div(float64(c.SweepNs)/1e3, gcs),
		"heap.freed_objs_per_gc":           div(float64(c.Freed), gcs),
		"collector.mark_ns_per_obj":        div(float64(c.MarkNs), float64(c.Marked)),
		"collector.marked_objs_per_gc":     div(float64(c.Marked), gcs),
		"collector.gc_per_kop":             gcs / ops * 1e3,
		"collector.gc_hit_ops_pct":         float64(p.gcHitOps) / ops * 100,
		"collector.gc_share_pct":           float64(c.GCNs) / primaryNs * 100,
		"collector.pause_p50_us":           quantile(sorted(p.pauses), 0.50) / 1e3,
		"collector.pause_p99_us":           quantile(sorted(p.pauses), 0.99) / 1e3,
		"core.ownership_ns_per_ownee":      div(float64(c.OwnNs), float64(c.Ownees)),
		"core.ownees_per_gc":               div(float64(c.Ownees), gcs),
		"core.ownership_share_of_gc_pct":   div(float64(c.OwnNs), float64(c.GCNs)) * 100,
		"core.assert_calls_per_op":         float64(c.AssertCalls) / ops,
		"core.violations":                  float64(c.Violations + res.planted),
		"rt.roots_per_gc":                  div(float64(c.Roots), gcs),
		"heap.alloc_ns_per_obj":            0,
		"core.assert_register_ns":          0,
		"minivm.compile_us":                0,
		"minivm.run_us_per_req":            0,
		"assertd.net_us":                   0,
		"assertd.codec_handoff_us":         0,
		"assertd.req_bytes":                0,
		"assertd.resp_bytes":               0,
		"assertd.guest_us":                 0,
		"assertd.gc_us_per_req":            0,
		"assertd.record_us_per_req":        0,
		"trace.kept_pct":                   0,
		"bench.trace_overhead_pct":         0,
		"env.ref_alu_ms":                   median(res.aluMs),
		"env.ref_alu_iqr_ms":               iqr(res.aluMs),
		"env.ref_mem_ms":                   median(res.memMs),
		"env.ref_mem_iqr_ms":               iqr(res.memMs),
		"bench.slowdown_pct":               (slowdown - 1) * 100,
		"bench.raw_ops_per_s":              p.rate(false),
		"bench.raw_latency_p50_us":         quantile(sorted(p.lat), 0.50) / 1e3,
		"bench.raw_latency_p99_us":         quantile(sorted(p.lat), 0.99) / 1e3,
		"bench.measured_ops":               ops,
		"bench.rounds":                     float64(res.rounds),
		"bench.latency_samples_beyond_p99": float64(len(p.lat)) * 0.01,
	}
	if tr := res.tr; tr != nil {
		if ns, n := tr.total(spAssert); n > 0 {
			out["core.assert_register_ns"] = max(float64(ns)/float64(n)-tr.clockNs, 0)
		}
		if ns, n := tr.total(spAlloc); n > 0 {
			out["heap.alloc_ns_per_obj"] = max(float64(ns-tr.gcInAllocNs)/float64(n)-tr.clockNs, 0)
		}
		// Traced and untraced rounds alternate by rotation, so both cover
		// every instance and the same stretch of time.
		out["bench.trace_overhead_pct"] = (1 - p.rate(true)/p.rate(false)) * 100
	}
	inst.layers(out, res.rec, res.tr)
	return out
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return div(sum(xs), float64(len(xs))) }

func iqr(xs []float64) float64 {
	s := sorted(xs)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// refKernels are two tiny fixed kernels run between rounds as evidence of
// how disturbed the machine was: a register-only ALU loop and a dependent
// pointer chase over 32 MB. Their times are reported and never used to
// rescale anything.
type refKernels struct {
	next []uint32
	pos  uint32
	sink uint64
}

const (
	refMemWords = 8 << 20 // 8 Mi uint32 = 32 MB
	refMemSteps = 40000
	refALUSteps = 2_000_000
)

func newRefKernels(seed uint64) *refKernels {
	// One random cycle through the array (Sattolo), so the chase never
	// settles into a short loop.
	r := newRNG(seed ^ 0x9e3779b97f4a7c15)
	next := make([]uint32, refMemWords)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := r.intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &refKernels{next: next}
}

func (k *refKernels) run() (aluMs, memMs float64) {
	t0 := time.Now()
	x := k.sink | 88172645463325252
	for i := 0; i < refALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	k.sink = x
	t1 := time.Now()
	p := k.pos
	for i := 0; i < refMemSteps; i++ {
		p = k.next[p]
	}
	k.pos = p
	t2 := time.Now()
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6, float64(t2.Sub(t1).Nanoseconds()) / 1e6
}

// rng is a splitmix64 generator: every input the benchmark makes comes from
// one of these seeded with --seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix is a stateless hash of two words, for values that must be the same
// wherever they are recomputed (payload words, per-round seeds).
func mix(a, b uint64) uint64 {
	r := rng{s: a*0x9e3779b97f4a7c15 ^ b}
	return r.next()
}

// warmupPasses is how many times a set-up runs its warm-up ops on each
// side before it counts as warm.
const warmupPasses = 2

// noRound marks an instance whose round buffers hold no round yet (warm-up
// rounds are numbered below zero, measured rounds from zero).
const noRound = int(^uint(0) >> 1)
