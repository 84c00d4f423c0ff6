package slo_test

import (
	"testing"
	"time"

	"gcassert"
	"gcassert/internal/slo"
	"gcassert/internal/telemetry"
)

// TestBudgetAccountingReconciles is the engine's acceptance property, in
// the same style as the loadlab pause-reconciliation test: drive a real
// runtime, feed the tracker from the same streams the service layer uses
// (request outcomes plus the telemetry OnRecord tap), and every number in
// the status document must reconcile EXACTLY against the raw counts the
// runtime reports — the violation counters, the pause histogram, and the
// per-event assertion-cost nanoseconds. Any drift means the window
// accounting drops or double-counts events.
func TestBudgetAccountingReconciles(t *testing.T) {
	configs := []struct {
		name     string
		heap     int
		requests int
		churn    int
		violEach int // assert-dead violation every N requests
		failEach int // synthetic request failure every N requests
		forced   int // forced collection every N requests (0 = never)
	}{
		{"exhaustion-only", 1 << 20, 400, 256, 13, 37, 0},
		{"forced-and-exhaustion", 1 << 20, 250, 128, 7, 11, 5},
		{"violation-heavy", 1 << 20, 300, 200, 2, 0, 9},
	}
	const maxMs = 0.05 // 50µs: real micro-pauses land on both sides
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			var violations uint64
			vm := gcassert.New(gcassert.Options{
				HeapBytes:      cfg.heap,
				Infrastructure: true,
				Telemetry:      true,
				OnViolation: func(*gcassert.Violation) gcassert.Reaction {
					violations++
					return gcassert.ReactLog
				},
			})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("svc")
			fr := th.Push(2)

			tr, err := slo.New(slo.Spec{
				Window: slo.Duration(time.Hour),
				Objectives: []slo.Objective{
					{Kind: slo.KindAvailability, TargetPct: 99},
					{Kind: slo.KindViolationRate, MaxPerMillion: 1000},
					{Kind: slo.KindPauseP99, MaxMs: maxMs},
					{Kind: slo.KindAssertCost, MaxPct: 50},
				},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}

			// The OnRecord tap is the same seam the service layer uses:
			// every collection feeds the pause and cost objectives.
			var events []*telemetry.Event
			vm.Telemetry().OnRecord(func(ev *telemetry.Event) {
				events = append(events, ev)
				var assertNs int64
				for _, c := range ev.Costs {
					assertNs += c.Ns
				}
				tr.RecordPause(ev.TotalNs, assertNs)
			})

			var requests, failures, lastViol uint64
			for seq := 0; seq < cfg.requests; seq++ {
				fr.Set(0, gcassert.Nil)
				for j := 0; j < cfg.churn; j++ {
					n := th.New(node)
					vm.SetRef(n, 0, fr.Get(0))
					fr.Set(0, n)
				}
				if cfg.violEach > 0 && seq%cfg.violEach == 0 {
					// Keep the asserted-dead object referenced: the next
					// collection finds it live and reports a violation.
					leaked := th.New(node)
					fr.Set(1, leaked)
					vm.AssertDead(leaked)
				}
				fr.Set(0, gcassert.Nil)
				if cfg.forced > 0 && seq%cfg.forced == 0 {
					vm.Collect()
				}
				requests++
				var fail uint64
				if cfg.failEach > 0 && seq%cfg.failEach == 0 {
					fail = 1
					failures++
				}
				tr.RecordRequests(1, fail, violations-lastViol)
				lastViol = violations
			}
			vm.Telemetry().OnRecord(nil)

			hist := vm.Telemetry().PauseHistogram()
			if hist.Count() == 0 || violations == 0 {
				t.Fatalf("run too quiet (%d collections, %d violations); property is vacuous",
					hist.Count(), violations)
			}
			if got := vm.AssertionStats().DeadViolations; got != violations {
				t.Fatalf("decider saw %d violations, engine counted %d", violations, got)
			}

			st, _ := tr.Status()
			byKind := map[string]slo.ObjectiveStatus{}
			for _, o := range st.Objectives {
				byKind[o.Kind] = o
			}

			// Availability: every request accounted, failures exact.
			av := byKind[slo.KindAvailability]
			if av.WindowTotal != requests || av.WindowBad != failures {
				t.Errorf("availability window (%d, %d), want (%d, %d)",
					av.WindowTotal, av.WindowBad, requests, failures)
			}

			// Violation rate: the window's bad count IS the runtime's
			// violation count.
			vr := byKind[slo.KindViolationRate]
			if vr.WindowTotal != requests || vr.WindowBad != violations {
				t.Errorf("violation_rate window (%d, %d), want (%d, %d)",
					vr.WindowTotal, vr.WindowBad, requests, violations)
			}

			// Pause p99: one window event per histogram entry; the bad
			// subset recomputed from the raw event stream.
			var badPauses uint64
			var pauseSumNs, assertSumNs int64
			for _, ev := range events {
				if float64(ev.TotalNs) > maxMs*1e6 {
					badPauses++
				}
				pauseSumNs += ev.TotalNs
				for _, c := range ev.Costs {
					assertSumNs += c.Ns
				}
			}
			pp := byKind[slo.KindPauseP99]
			if pp.WindowTotal != uint64(hist.Count()) || pp.WindowBad != badPauses {
				t.Errorf("pause_p99 window (%d, %d), want (%d, %d)",
					pp.WindowTotal, pp.WindowBad, hist.Count(), badPauses)
			}

			// Assert cost: total is the pause histogram's nanosecond sum,
			// bad the summed per-kind attributed nanoseconds.
			ac := byKind[slo.KindAssertCost]
			if ac.WindowTotal != uint64(pauseSumNs) || ac.WindowTotal != uint64(hist.Sum().Nanoseconds()) {
				t.Errorf("assert_cost total %d, want %d (events) / %d (histogram)",
					ac.WindowTotal, pauseSumNs, hist.Sum().Nanoseconds())
			}
			if ac.WindowBad != uint64(assertSumNs) {
				t.Errorf("assert_cost bad %d, want %d", ac.WindowBad, assertSumNs)
			}
			if assertSumNs == 0 {
				t.Error("no assertion cost attributed; property is vacuous")
			}

			// Budget remaining must be re-derivable from the raw counts.
			for _, o := range st.Objectives {
				allowed := o.BudgetFraction * float64(o.WindowTotal)
				want := 1.0
				if allowed > 0 && o.WindowTotal > 0 {
					want = 1 - float64(o.WindowBad)/allowed
					if want < 0 {
						want = 0
					}
					if want > 1 {
						want = 1
					}
				}
				if o.BudgetRemainingRatio != want {
					t.Errorf("%s: budget remaining %g, want %g from raw counts",
						o.Name, o.BudgetRemainingRatio, want)
				}
			}
		})
	}
}
