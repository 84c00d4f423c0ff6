package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramSummaryOrdering(t *testing.T) {
	h := NewHistogram(DefaultPauseBuckets())
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50, p95, p99 := h.Summary()
	if p50 <= 0 || p50 > p95 || p95 > p99 || p99 > h.Max() {
		t.Fatalf("summary not ordered: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, h.Max())
	}
}

// TestPrometheusHistogramSummaryLine pins the human-readable percentile
// comment emitted above each populated histogram: present once values were
// observed, absent (so scrapers of an idle process see pure exposition
// output) before.
func TestPrometheusHistogramSummaryLine(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x_seconds", "test histogram", DefaultPauseBuckets())

	var empty strings.Builder
	if err := reg.WritePrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "summary:") {
		t.Fatalf("empty histogram rendered a summary line:\n%s", empty.String())
	}

	h.Observe(3 * time.Millisecond)
	h.Observe(7 * time.Millisecond)
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "# x_seconds summary:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no summary comment line in:\n%s", out.String())
	}
	for _, want := range []string{"p50=", "p95=", "p99=", "max="} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary line %q missing %q", line, want)
		}
	}
	// Comment lines other than HELP/TYPE must be ignored by scrapers; make
	// sure it renders as a comment.
	if !strings.HasPrefix(line, "# ") || strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
		t.Fatalf("summary must be a plain comment line, got %q", line)
	}
}

func TestFloatCounter(t *testing.T) {
	reg := NewRegistry()
	fc := reg.FloatCounter("cost_seconds", "test float counter", Label{"kind", "dead"})
	fc.Add(0.5)
	fc.Add(0.25)
	if v := fc.Value(); v != 0.75 {
		t.Fatalf("value %v, want 0.75", v)
	}
	if again := reg.FloatCounter("cost_seconds", "test float counter", Label{"kind", "dead"}); again != fc {
		t.Fatal("FloatCounter lookup is not idempotent")
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `cost_seconds{kind="dead"} 0.75`) {
		t.Fatalf("float counter not rendered:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# TYPE cost_seconds counter") {
		t.Fatalf("float counter must expose as TYPE counter:\n%s", out.String())
	}
}

// TestFloatCounterIntMixPanics: a name holds integer or float series, not
// both, whichever kind registers first, and a refused registration leaves
// the exposition as it was.
func TestFloatCounterIntMixPanics(t *testing.T) {
	l := Label{"kind", "dead"}
	cases := []struct {
		name          string
		first, second func(*Registry)
	}{
		{"counter-then-float",
			func(r *Registry) { r.Counter("mixed_total", "int", l).Add(2) },
			func(r *Registry) { r.FloatCounter("mixed_total", "float", l) }},
		{"float-then-counter",
			func(r *Registry) { r.FloatCounter("mixed_total", "float", l).Add(1.5) },
			func(r *Registry) { r.Counter("mixed_total", "int", l) }},
		{"gauge-then-float",
			func(r *Registry) { r.Gauge("mixed", "int", l).Set(2) },
			func(r *Registry) { r.FloatGauge("mixed", "float", l) }},
		{"float-then-gauge",
			func(r *Registry) { r.FloatGauge("mixed", "float", l).Set(1.5) },
			func(r *Registry) { r.Gauge("mixed", "int", l) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tc.first(reg)
			var before strings.Builder
			if err := reg.WritePrometheus(&before); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("no panic on re-registration under the other value kind")
					}
				}()
				tc.second(reg)
			}()
			var after strings.Builder
			if err := reg.WritePrometheus(&after); err != nil {
				t.Fatal(err)
			}
			if after.String() != before.String() {
				t.Errorf("exposition changed by the refused registration:\n--- before ---\n%s--- after ---\n%s",
					before.String(), after.String())
			}
		})
	}
}

// TestGoTracePauseSummary pins the percentile footer of the gctrace export.
func TestGoTracePauseSummary(t *testing.T) {
	start := time.Unix(0, 0)
	events := []Event{
		{Seq: 0, Reason: "forced", StartUnixNs: 1e6, TotalNs: 2e6},
		{Seq: 1, Reason: "forced", StartUnixNs: 5e6, TotalNs: 4e6},
	}
	var out strings.Builder
	if err := WriteGoTrace(&out, events, start); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# pause summary: p50=") ||
		!strings.Contains(out.String(), "p95=") ||
		!strings.Contains(out.String(), "max=4ms (2 collections)") {
		t.Fatalf("missing pause summary footer:\n%s", out.String())
	}

	out.Reset()
	if err := WriteGoTrace(&out, nil, start); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "pause summary") {
		t.Fatalf("empty trace rendered a summary footer:\n%s", out.String())
	}
}
