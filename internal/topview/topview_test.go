package topview

import (
	"fmt"
	"strings"
	"testing"

	"gcassert/internal/slo"
	"gcassert/internal/telemetry"
)

func sampleEvent(seq uint64, words uint64) *telemetry.Event {
	return &telemetry.Event{
		Seq:           seq,
		Reason:        "alloc-failure",
		TotalNs:       1_500_000,
		ObjectsLive:   1234,
		ObjectsFreed:  567,
		Trigger:       "heap exhausted at 93.1% occupancy",
		OccupancyPct:  93.1,
		AllocRateWps:  250_000,
		TriggerThread: "worker-1",
		Costs: []telemetry.AssertCost{
			{Kind: "assert-dead", Checks: 12, Ns: 4000},
			{Kind: "assert-unshared", Checks: 40, Ns: 9000},
		},
		Threads: []telemetry.ThreadAlloc{
			{Name: "main", Objects: 100, Words: words},
			{Name: "worker-1", Objects: 900, Words: words * 9},
		},
	}
}

func TestModelRender(t *testing.T) {
	m := New()
	var empty strings.Builder
	m.Render(&empty)
	if !strings.Contains(empty.String(), "waiting for GC events") {
		t.Fatalf("empty render = %q", empty.String())
	}

	m.Feed(sampleEvent(3, 1000))
	m.Feed(sampleEvent(4, 2000))
	var out strings.Builder
	m.Render(&out)
	s := out.String()
	for _, want := range []string{
		"gc #5",                // last seq + 1
		"(2 collections seen)", // events fed
		"93.1%",                // occupancy
		"[",                    // occupancy bar
		"heap exhausted",       // trigger line
		"top allocator: worker-1",
		"assert-dead",
		"assert-unshared",
		"main",
		"worker-1",
		"250.0k words/s",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	// Sparkline should hold one rune per fed pause.
	if !strings.ContainsAny(s, "▁▂▃▄▅▆▇█") {
		t.Fatalf("render missing pause sparkline:\n%s", s)
	}
}

func TestFeedJSONRejectsGarbage(t *testing.T) {
	m := New()
	if err := m.FeedJSON([]byte("{nope")); err == nil {
		t.Fatal("no error on malformed frame")
	}
	if m.Events() != 0 {
		t.Fatal("malformed frame counted as an event")
	}
}

// A server built while the collector had a parallel marker stamps workers,
// fallback and per_worker on its event frames; a current gctop must keep
// reading them.
func TestFeedJSONIgnoresRemovedWorkerKeys(t *testing.T) {
	m := New()
	frame := `{"seq":9,"reason":"forced","total_ns":1200,"objects_live":5,
	           "workers":4,"fallback":"keep-marks",
	           "per_worker":[{"worker":0,"marked":5,"steals":0,"dur_ns":300}]}`
	if err := m.FeedJSON([]byte(frame)); err != nil {
		t.Fatalf("frame with the removed worker keys rejected: %v", err)
	}
	if m.Events() != 1 || m.last.Seq != 9 || m.last.ObjectsLive != 5 {
		t.Fatalf("frame decoded as %+v", m.last)
	}
}

// TestThreadDeltas pins the per-interval rate column: the second frame's
// delta is the growth since the first, not the lifetime total.
func TestThreadDeltas(t *testing.T) {
	m := New()
	m.Feed(sampleEvent(0, 1000))
	m.Feed(sampleEvent(1, 1500))
	for _, row := range m.threads {
		if row.name == "main" && row.deltaWords != 500 {
			t.Fatalf("main delta = %d words, want 500", row.deltaWords)
		}
	}
}

// TestAlertsPane pins the SLO overlay: transitions update rules in place,
// firing rows sort above pending and resolved ones, and the pane renders
// with or without GC events.
func TestAlertsPane(t *testing.T) {
	m := New()
	m.FeedAlert(&slo.AlertEvent{
		Tenant: "steady", Objective: "availability", Severity: "fast",
		State: "pending", Prev: "ok", BurnShort: 11, Threshold: 10, BudgetRemainingRatio: 0.8,
	})
	m.FeedAlert(&slo.AlertEvent{
		Tenant: "leaky", Objective: "violation_rate", Severity: "fast",
		State: "pending", Prev: "ok", BurnShort: 12, Threshold: 10, BudgetRemainingRatio: 0.5,
	})
	m.FeedAlert(&slo.AlertEvent{
		Tenant: "leaky", Objective: "violation_rate", Severity: "fast",
		State: "firing", Prev: "pending", BurnShort: 66.7, Threshold: 10, BudgetRemainingRatio: 0,
	})
	if m.Alerts() != 3 {
		t.Fatalf("alerts fed = %d, want 3", m.Alerts())
	}
	if len(m.alerts) != 2 {
		t.Fatalf("alert rows = %d, want 2 (second leaky transition updates in place)", len(m.alerts))
	}

	// Pane renders even before any GC event arrives.
	var out strings.Builder
	m.Render(&out)
	s := out.String()
	for _, want := range []string{"slo alerts (3 transitions)", "firing", "leaky", "violation_rate", "66.7x", "steady", "pending"} {
		if !strings.Contains(s, want) {
			t.Fatalf("alerts pane missing %q:\n%s", want, s)
		}
	}
	if strings.Index(s, "leaky") > strings.Index(s, "steady") {
		t.Fatalf("firing row not sorted above pending:\n%s", s)
	}

	// And below the dashboard once events flow.
	m.Feed(sampleEvent(0, 1000))
	out.Reset()
	m.Render(&out)
	if s := out.String(); !strings.Contains(s, "slo alerts") || !strings.Contains(s, "gc #1") {
		t.Fatalf("combined render missing a pane:\n%s", s)
	}
}

func TestAlertEviction(t *testing.T) {
	m := New()
	for i := 0; i < alertCap; i++ {
		m.FeedAlert(&slo.AlertEvent{
			Tenant: fmt.Sprintf("t%02d", i), Objective: "availability",
			Severity: "fast", State: "firing",
		})
	}
	// Resolve one rule, then overflow: the resolved row goes first.
	m.FeedAlert(&slo.AlertEvent{Tenant: "t05", Objective: "availability", Severity: "fast", State: "ok"})
	m.FeedAlert(&slo.AlertEvent{Tenant: "fresh", Objective: "availability", Severity: "fast", State: "pending"})
	if len(m.alerts) != alertCap {
		t.Fatalf("rows = %d, want the %d cap", len(m.alerts), alertCap)
	}
	for i := range m.alerts {
		if m.alerts[i].tenant == "t05" {
			t.Fatal("resolved row survived eviction")
		}
	}
}

func TestBarClamps(t *testing.T) {
	if got := bar(-5, 10); got != "[..........]" {
		t.Fatalf("bar(-5) = %q", got)
	}
	if got := bar(250, 10); got != "[##########]" {
		t.Fatalf("bar(250) = %q", got)
	}
}
