package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanName identifies a span kind. Names carry the module they time as a
// prefix, so the per-layer metrics can be read straight off the trace.
type spanName uint8

const (
	spOp        spanName = iota // one benchmark op (batch, mutate+collect, HTTP round trip)
	spAlloc                     // Thread.New / Thread.NewArray
	spAssert                    // Runtime.Assert*
	spCollect                   // Runtime.Collect
	spCompile                   // minivm.Compile + minivm.Load
	spRun                       // Image.Run
	spHandler                   // middleware round Server.Handler()
	spRoundTrip                 // client round trip
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:        "bench.op",
	spAlloc:     "heap.alloc",
	spAssert:    "core.assert_register",
	spCollect:   "collector.collect",
	spCompile:   "minivm.compile",
	spRun:       "minivm.run",
	spHandler:   "assertd.handler",
	spRoundTrip: "assertd.round_trip",
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Parent indexes the span that caused this one (-1 for none) and Op
// is shared by every span of one benchmark op.
type span struct {
	Name   spanName
	Start  int64
	End    int64
	Parent int32
	Op     int32
}

// fineEvery is the share of traced ops that also record their leaf calls
// (Thread.New*, Assert*): one op in fineEvery. An embed-db batch makes
// thousands of such calls, so recording them on every op would turn the
// trace file into hundreds of megabytes without changing any per-call mean.
const fineEvery = 61

// tracer keeps spans in memory until the run ends. A nil *tracer is valid
// and records nothing, which is how untraced rounds run the same code. The
// mutex is uncontended (the client waits while the handler runs) but makes
// the hand-over between the two goroutines a synchronised one.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indices
	op    int32
	fine  bool // current op records leaf calls
	// clockNs is the cost of one empty begin/end pair, measured at start-up
	// and subtracted from per-call leaf means.
	clockNs float64
	// gcInAllocNs is collector time that fell inside recorded heap.alloc
	// spans (a collection on heap exhaustion runs inside Thread.New*); the
	// per-allocation mean leaves it out.
	gcInAllocNs int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), op: -1}
	// An empty begin/end pair records what every wrapped call sees added to
	// itself: the interval between the clock read in begin and the one in
	// end.
	for i := 0; i < 20000; i++ {
		t.end(t.begin(spAlloc))
	}
	t.clockNs = median(t.durations(spAlloc))
	t.spans = t.spans[:0]
	return t
}

// startOp opens the op-level span and decides whether the op records leaf
// calls.
func (t *tracer) startOp() int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.fine = t.op%fineEvery == 0
	t.mu.Unlock()
	return t.begin(spOp)
}

// beginLeaf opens a span round one leaf call (Thread.New*, Assert*) when
// the current op records them; otherwise it returns -1, which end ignores.
func (t *tracer) beginLeaf(name spanName) int32 {
	if t == nil || !t.fine {
		return -1
	}
	return t.begin(name)
}

func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].Start = time.Since(t.epoch).Nanoseconds()
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// nameStats is the per-name aggregate written beside the raw spans.
type nameStats struct {
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// aggregate computes count, total and self time per span name. Self time is
// a span's duration minus the part its child spans cover; children of one
// parent never overlap here (one goroutine runs at a time), so that part is
// the sum of their durations.
func (t *tracer) aggregate() map[string]nameStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]nameStats)
	for i, s := range t.spans {
		ns := out[spanNames[s.Name]]
		ns.Count++
		ns.TotalNs += s.End - s.Start
		ns.SelfNs += s.End - s.Start - child[i]
		out[spanNames[s.Name]] = ns
	}
	for k, ns := range out {
		ns.MeanNs = float64(ns.TotalNs) / float64(ns.Count)
		out[k] = ns
	}
	return out
}

// total returns the summed duration and count of spans with the name.
func (t *tracer) total(name spanName) (ns int64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// durations returns every duration recorded under the name, in span order.
func (t *tracer) durations(name spanName) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

type spanJSON struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
}

// write stores the trace as one JSON document: the per-name aggregate first
// (what most readers want), then every span in recording order, so a
// span's index in "spans" is the id other spans name as their parent.
func (t *tracer) write(path, workload string, seed uint64) error {
	doc := struct {
		Workload    string               `json:"workload"`
		Seed        uint64               `json:"seed"`
		ClockPairNs float64              `json:"clock_pair_ns"`
		FineEvery   int                  `json:"leaf_spans_every_n_ops"`
		ByName      map[string]nameStats `json:"by_name"`
		SpanCount   int                  `json:"span_count"`
		Spans       []spanJSON           `json:"spans"`
	}{Workload: workload, Seed: seed, ClockPairNs: t.clockNs, FineEvery: fineEvery,
		ByName: t.aggregate(), SpanCount: len(t.spans)}
	doc.Spans = make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		doc.Spans[i] = spanJSON{spanNames[s.Name], s.Start, s.End, s.Parent, s.Op}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
