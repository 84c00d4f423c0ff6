package telemetry

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float-valued counter (e.g.
// attributed seconds). Add is lock-free: a CAS loop over the value's IEEE
// bits, the standard trick for atomic float accumulation.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments by v (v must be >= 0 to keep the counter monotonic).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a settable float-valued instantaneous value (ratios, burn
// rates). Set/Value are atomic over the value's IEEE bits.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one metric label pair.
type Label struct{ Name, Value string }

// series is one labeled time series within a family. It holds exactly one
// metric, of its family's kind, set when the series is created.
type series struct {
	pairs    []Label // sorted by name; equal names keep their registration order
	labels   string  // rendered {k="v",...} suffix, "" when unlabeled
	next     *series // next series of the family with the same label hash
	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	fgauge   *FloatGauge
	hist     *Histogram
}

// family groups the series sharing one metric name. A family holds integer
// or float series, not both.
type family struct {
	name, help, typ string
	float           bool
	series          []*series
	byHash          map[uint64]*series // labelHash → series, collisions chained by next
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name+labels pair, labels in any order, returns the same metric, so hot
// paths may look metrics up lazily. Such a hit takes the lock once,
// allocates nothing and costs the same however many series the family
// holds; only the first registration of a series allocates and renders its
// label set.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

var (
	labelSeed    = maphash.MakeSeed()
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// labelHash hashes a label set independently of the order of its pairs.
func labelHash(labels []Label) uint64 {
	var h uint64
	for _, l := range labels {
		h += maphash.String(labelSeed, l.Name)*31 ^ maphash.String(labelSeed, l.Value)
	}
	return h
}

// rank is the index of labels[i] once labels are stably sorted by name.
func rank(labels []Label, i int) int {
	k := 0
	for j, l := range labels {
		if l.Name < labels[i].Name || l.Name == labels[i].Name && j < i {
			k++
		}
	}
	return k
}

// matches reports whether labels, in any order, are the series' pairs.
func (s *series) matches(labels []Label) bool {
	if len(labels) != len(s.pairs) {
		return false
	}
	for i, l := range labels {
		if s.pairs[rank(labels, i)] != l {
			return false
		}
	}
	return true
}

func newSeries(labels []Label) *series {
	if len(labels) == 0 {
		return &series{}
	}
	s := &series{pairs: make([]Label, len(labels))}
	for i, l := range labels {
		s.pairs[rank(labels, i)] = l
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s.pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	s.labels = b.String()
	return s
}

// lookup finds or creates the series for name+labels, verifying the kind;
// the caller holds r.mu. A created series has no metric yet.
func (r *Registry) lookup(name, help, typ string, float bool, labels []Label) *series {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, float: float, byHash: make(map[uint64]*series)}
		r.families[name] = f
	} else if f.typ != typ || f.float != float {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)",
			name, kindName(typ, float), kindName(f.typ, f.float)))
	}
	h := labelHash(labels)
	for s := f.byHash[h]; s != nil; s = s.next {
		if s.matches(labels) {
			return s
		}
	}
	s := newSeries(labels)
	s.next = f.byHash[h]
	f.byHash[h] = s
	f.series = append(f.series, s)
	return s
}

func kindName(typ string, float bool) string {
	if float {
		return "float " + typ
	}
	return typ
}

// Counter finds or creates a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "counter", false, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// FloatCounter finds or creates a float-valued counter. It renders as a
// Prometheus counter; a name may hold integer or float series, not both.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "counter", true, labels)
	if s.fcounter == nil {
		s.fcounter = &FloatCounter{}
	}
	return s.fcounter
}

// Gauge finds or creates a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "gauge", false, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// FloatGauge finds or creates a float-valued gauge. It renders as a
// Prometheus gauge; a name may hold integer or float series, not both.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "gauge", true, labels)
	if s.fgauge == nil {
		s.fgauge = &FloatGauge{}
	}
	return s.fgauge
}

// Histogram finds or creates a histogram over bounds (seconds, ascending).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "histogram", false, labels)
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// histLabels splices the le label into an existing rendered label set.
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label set, so output is deterministic. Safe to call while metrics are
// being updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type famCopy struct {
		family
		ss []*series
	}
	fams := make([]famCopy, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		fams = append(fams, famCopy{family: *f, ss: ss})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.ss {
			var err error
			switch {
			case s.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.fcounter != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fcounter.Value()))
			case s.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case s.fgauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fgauge.Value()))
			case s.hist != nil:
				err = writeHist(w, f.name, s.labels, s.hist)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name, labels string, h *Histogram) error {
	// A quantile summary rides along as a comment: the text exposition
	// format ignores comment lines that are not HELP/TYPE, so scrapers are
	// unaffected while a human curl gets the percentiles for free.
	if p50, p95, p99 := h.Summary(); h.Count() > 0 {
		if _, err := fmt.Fprintf(w, "# %s%s summary: p50=%v p95=%v p99=%v max=%v\n",
			name, labels, p50, p95, p99, h.Max()); err != nil {
			return err
		}
	}
	counts := h.snapshot()
	exemplars := h.exemplars()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, histLabels(labels, formatFloat(b)),
			cum, exemplarSuffix(exemplars, i)); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, histLabels(labels, "+Inf"),
		cum, exemplarSuffix(exemplars, len(counts)-1)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// exemplarSuffix renders a bucket's trace exemplar in OpenMetrics syntax
// (" # {trace_id=\"...\"} value timestamp"), or "" when the bucket has
// none. Prometheus's text parser ignores the suffix; OpenMetrics scrapers
// and humans get a trace ID that resolves against the trace store.
func exemplarSuffix(ex map[int]Exemplar, bucket int) string {
	e, ok := ex[bucket]
	if !ok {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
		e.TraceID, formatFloat(e.Value), formatFloat(float64(e.UnixNs)/1e9))
}
