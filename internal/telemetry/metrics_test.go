package telemetry

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exact text exposition output: families
// sorted by name, series by label set, histograms with cumulative buckets,
// +Inf, _sum in seconds and _count.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_requests_total", "Requests served.", Label{"kind", "a"}).Add(3)
	reg.Counter("test_requests_total", "Requests served.", Label{"kind", "b"}).Inc()
	reg.Gauge("test_live", "Live objects.").Set(7)
	h := reg.Histogram("test_pause_seconds", "Pause times.", []float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := `# HELP test_live Live objects.
# TYPE test_live gauge
test_live 7
# HELP test_pause_seconds Pause times.
# TYPE test_pause_seconds histogram
# test_pause_seconds summary: p50=5.5ms p95=43.999999ms p99=48.799999ms max=50ms
test_pause_seconds_bucket{le="0.001"} 1
test_pause_seconds_bucket{le="0.01"} 2
test_pause_seconds_bucket{le="+Inf"} 3
test_pause_seconds_sum 0.0555
test_pause_seconds_count 3
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{kind="a"} 3
test_requests_total{kind="b"} 1
`
	if got := b.String(); got != golden {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "x", Label{"a", "1"})
	c2 := reg.Counter("x_total", "x", Label{"a", "1"})
	if c1 != c2 {
		t.Error("same name+labels returned distinct counters")
	}
	c3 := reg.Counter("x_total", "x", Label{"a", "2"})
	if c1 == c3 {
		t.Error("distinct labels returned the same counter")
	}
}

// TestRegistryHitPathAllocatesNothing: looking up an existing series —
// labels in any order, in a family already holding a thousand others —
// allocates nothing, for every metric kind.
func TestRegistryHitPathAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	bounds := DefaultPauseBuckets()
	lookups := map[string]func(name string, ls []Label){
		"counter":       func(n string, ls []Label) { reg.Counter(n, "h", ls...).Inc() },
		"float_counter": func(n string, ls []Label) { reg.FloatCounter(n, "h", ls...).Add(1) },
		"gauge":         func(n string, ls []Label) { reg.Gauge(n, "h", ls...).Set(1) },
		"float_gauge":   func(n string, ls []Label) { reg.FloatGauge(n, "h", ls...).Set(1) },
		"histogram":     func(n string, ls []Label) { reg.Histogram(n, "h", bounds, ls...).Observe(time.Microsecond) },
	}
	a, b, c := Label{"tenant", "t-7"}, Label{"objective", "pause"}, Label{"severity", "fast"}
	sets := [][]Label{nil, {a}, {a, b}, {b, a}, {a, b, c}, {c, a, b}, {b, c, a}}
	for kind, get := range lookups {
		name := "hit_" + kind
		for i := 0; i < 1000; i++ {
			get(name, []Label{{"tenant", "t-" + strconv.Itoa(i)}, {"objective", "other"}})
		}
		for _, ls := range sets {
			get(name, ls)
			if n := testing.AllocsPerRun(100, func() { get(name, ls) }); n != 0 {
				t.Errorf("%s %v: %v allocations per hit, want 0", kind, ls, n)
			}
		}
	}
	// Literal arguments, as callers write them: the variadic slice must not
	// escape either.
	if n := testing.AllocsPerRun(100, func() {
		reg.Counter("hit_counter", "h", c, a, b).Inc()
		reg.FloatCounter("hit_float_counter", "h", b, c, a).Add(1)
		reg.Gauge("hit_gauge", "h", a, b).Set(2)
		reg.FloatGauge("hit_float_gauge", "h", b, a).Set(2)
		reg.Histogram("hit_histogram", "h", bounds, a).Observe(time.Millisecond)
	}); n != 0 {
		t.Errorf("literal-argument hits: %v allocations, want 0", n)
	}
	// The permutations resolved to the 4 distinct sets, not to new series.
	if got := len(reg.families["hit_counter"].series); got != 1000+4 {
		t.Errorf("hit_counter holds %d series, want 1004", got)
	}
}

// TestRegistryConcurrentLookupAndRender: series are created and looked up
// while the exposition is rendered. A series carries its metric from the
// moment other goroutines can see it, so the render (which reads series
// outside the registry lock) races with nothing; run it under -race.
func TestRegistryConcurrentLookupAndRender(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := Label{"reason", strconv.Itoa(i % 50)}
				reg.Counter("race_total", "h", l, Label{"w", strconv.Itoa(w)}).Inc()
				reg.FloatGauge("race_ratio", "h", l).Set(float64(i))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `race_total{reason="0",w="3"} 4`) {
		t.Errorf("missing or wrong series after concurrent increments:\n%.400s", out.String())
	}
}

// TestRegistryLabelIdentity pins which label sets name the same series:
// the pairs, in any order, with a repeated name's values kept in the order
// given — the same identity as the rendered {k="v",...} form.
func TestRegistryLabelIdentity(t *testing.T) {
	cases := []struct {
		name     string
		a, b     []Label
		same     bool
		rendered string // a's series as exposed
	}{
		{"permuted", []Label{{"x", "1"}, {"y", "2"}, {"z", "3"}}, []Label{{"z", "3"}, {"x", "1"}, {"y", "2"}},
			true, `{x="1",y="2",z="3"}`},
		{"swapped-values", []Label{{"x", "1"}, {"y", "2"}}, []Label{{"x", "2"}, {"y", "1"}},
			false, `{x="1",y="2"}`},
		{"name-value-swap", []Label{{"x", "y"}}, []Label{{"y", "x"}},
			false, `{x="y"}`},
		{"subset", []Label{{"x", "1"}}, []Label{{"x", "1"}, {"y", "2"}},
			false, `{x="1"}`},
		{"repeated-name", []Label{{"x", "1"}, {"x", "2"}}, []Label{{"x", "1"}, {"x", "2"}},
			true, `{x="1",x="2"}`},
		{"repeated-name-reordered", []Label{{"x", "1"}, {"x", "2"}}, []Label{{"x", "2"}, {"x", "1"}},
			false, `{x="1",x="2"}`},
		{"repeated-name-interleaved", []Label{{"x", "1"}, {"a", "0"}, {"x", "2"}}, []Label{{"a", "0"}, {"x", "1"}, {"x", "2"}},
			true, `{a="0",x="1",x="2"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			ca := reg.Counter("id_total", "identity", tc.a...)
			ca.Inc()
			if same := reg.Counter("id_total", "identity", tc.b...) == ca; same != tc.same {
				t.Errorf("%v and %v: same series = %v, want %v", tc.a, tc.b, same, tc.same)
			}
			var out strings.Builder
			if err := reg.WritePrometheus(&out); err != nil {
				t.Fatal(err)
			}
			if want := "id_total" + tc.rendered + " 1\n"; !strings.Contains(out.String(), want) {
				t.Errorf("exposition lacks %q:\n%s", want, out.String())
			}
		})
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "esc", Label{"p", `a"b\c` + "\n"}).Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{p="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}
