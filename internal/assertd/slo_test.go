package assertd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gcassert/internal/assertd"
	"gcassert/internal/fleet"
	"gcassert/internal/slo"
)

// serverClock is a goroutine-safe fake clock for assertd.Config.Clock:
// drives, other HTTP handlers and the test all read it
// concurrently, and only the test advances it.
type serverClock struct{ ns atomic.Int64 }

func (c *serverClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *serverClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// testSLOSpec scales the SRE windows down so a minute of fake-clock traffic
// walks the full alert lifecycle: a 60s compliance window, a fast rule at
// 5s/30s burning 10×, and a slow rule parked at an unreachable burn (the
// max possible burn at a 1% budget fraction is 100).
func testSLOSpec() *slo.Spec {
	return &slo.Spec{
		Window: slo.Duration(60 * time.Second),
		Objectives: []slo.Objective{
			{Kind: slo.KindViolationRate, MaxPerMillion: 10000},
		},
		Alerting: slo.Alerting{
			FastShort: slo.Duration(5 * time.Second),
			FastLong:  slo.Duration(30 * time.Second),
			FastBurn:  10,
			SlowShort: slo.Duration(30 * time.Second),
			SlowLong:  slo.Duration(60 * time.Second),
			SlowBurn:  5000,
		},
	}
}

// readAlertFrames reads SSE data frames from GET /alerts until it has n of
// them (replay makes past transitions immediately available).
func readAlertFrames(t *testing.T, baseURL string, n int) []slo.AlertEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/alerts", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /alerts = %d", resp.StatusCode)
	}
	var evs []slo.AlertEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(evs) < n {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev slo.AlertEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad alert frame %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) < n {
		t.Fatalf("read %d alert frames, want %d (scan err: %v)", len(evs), n, sc.Err())
	}
	return evs
}

// TestSLOAlertLifecycle is the service-level acceptance test: a fake clock
// drives a tenant through budget exhaustion and the test pins the exact
// alert sequence — pending, fast-burn firing, hysteresis clear — as seen
// through the /alerts replay, GET /tenants/{id}/slo, and /metrics.
//
// Traffic shape (100 requests per fake second, violation-rate budget 1%):
// 30 clean seconds establish baseline, then the leaker program turns every
// request into a violation. At the switch the 5s window burns ~16× (over
// the 10× threshold) while the 30s window is still diluted — pending. By
// the 4th bad second the 30s window crosses too — firing. Swapping the
// steady program back drains the short window within ~6s; the alert clears
// only after the burn has stayed below 0.9× threshold for the 5s hold.
func TestSLOAlertLifecycle(t *testing.T) {
	clk := &serverClock{}
	clk.ns.Store(int64(1000 * time.Second)) // arbitrary non-zero epoch
	_, ts := testServer(t, assertd.Config{Clock: clk.now})

	createTenant(t, ts, "svc", assertd.TenantOptions{SLO: testSLOSpec()})
	submit(t, ts, "svc", steadySrc)
	for i := 0; i < 30; i++ {
		drive(t, ts, "svc", 100, false)
		clk.advance(time.Second)
	}

	// The budget-torching phase: every leaker request asserts a live node
	// dead, so violations arrive at 100× the budgeted rate.
	submit(t, ts, "svc", leakerSrc)
	for i := 0; i < 4; i++ {
		drive(t, ts, "svc", 100, false)
		clk.advance(time.Second)
	}

	var mid slo.Status
	doJSON(t, "GET", ts.URL+"/tenants/svc/slo", nil, http.StatusOK, &mid)
	if mid.Compliant {
		t.Fatal("tenant still compliant after burning 400 violations against a 1% budget")
	}
	obj := mid.Objectives[0]
	if obj.BudgetRemainingRatio != 0 {
		t.Fatalf("budget remaining = %v, want 0 (spent 400 of ~49 allowed)", obj.BudgetRemainingRatio)
	}
	firingNow := false
	for _, a := range obj.Alerts {
		if a.Severity == slo.SeverityFast && a.State == "firing" {
			firingNow = true
		}
		if a.Severity == slo.SeveritySlow && a.State != "ok" {
			t.Fatalf("slow rule = %s, want ok (burn threshold is unreachable)", a.State)
		}
	}
	if !firingNow {
		t.Fatalf("fast rule not firing mid-burn; status: %+v", obj.Alerts)
	}

	// Recovery: steady traffic drains the short window, then the hold
	// elapses and the alert clears on the record path.
	submit(t, ts, "svc", steadySrc)
	for i := 0; i < 15; i++ {
		drive(t, ts, "svc", 100, false)
		clk.advance(time.Second)
	}

	// The exact transition sequence, via the /alerts SSE replay.
	evs := readAlertFrames(t, ts.URL, 3)
	type step struct{ state, prev string }
	want := []step{{"pending", "ok"}, {"firing", "pending"}, {"ok", "firing"}}
	for i, ev := range evs {
		if ev.Tenant != "svc" || ev.Objective != "violation_rate" || ev.Severity != slo.SeverityFast {
			t.Fatalf("frame %d routed wrong: tenant=%q objective=%q severity=%q",
				i, ev.Tenant, ev.Objective, ev.Severity)
		}
		if ev.State != want[i].state || ev.Prev != want[i].prev {
			t.Fatalf("transition %d = %s→%s, want %s→%s",
				i, ev.Prev, ev.State, want[i].prev, want[i].state)
		}
	}
	if evs[1].BurnShort < evs[1].Threshold || evs[1].BurnLong < evs[1].Threshold {
		t.Fatalf("firing with burns %.1f/%.1f below threshold %.1f",
			evs[1].BurnShort, evs[1].BurnLong, evs[1].Threshold)
	}
	if evs[2].BurnShort >= 0.9*evs[2].Threshold {
		t.Fatalf("cleared at burn %.2f, want below the 0.9× clear ratio", evs[2].BurnShort)
	}
	if hold := evs[2].UnixNs - evs[1].UnixNs; hold < int64(5*time.Second) {
		t.Fatalf("cleared %v after firing, want ≥ the 5s hold", time.Duration(hold))
	}

	// The alert is resolved but the torched budget stays visible until the
	// bad minute ages out of the compliance window.
	var end slo.Status
	doJSON(t, "GET", ts.URL+"/tenants/svc/slo", nil, http.StatusOK, &end)
	for _, a := range end.Objectives[0].Alerts {
		if a.State != "ok" {
			t.Fatalf("%s rule = %s after recovery, want ok", a.Severity, a.State)
		}
	}
	if end.Objectives[0].Met {
		t.Fatal("objective met while 400 violations remain inside the window")
	}

	// Tenant stats carry the SLO judgment; the Prometheus surface carries
	// the tenant-labeled budget, burn and state series.
	if st := tenantStats(t, ts, "svc"); st.SLO == nil {
		t.Fatal("tenant stats missing slo section")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, series := range []string{
		`gcassertd_slo_budget_remaining_ratio{objective="violation_rate",tenant="svc"} 0`,
		`gcassertd_slo_burn_rate{objective="violation_rate",severity="fast",tenant="svc"}`,
		`gcassertd_slo_alert_state{objective="violation_rate",severity="fast",tenant="svc"} 0`,
		`gcassertd_slo_alert_transitions_total{tenant="svc"} 3`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}

// TestSLOIdleClearOnRead pins the status-read evaluation path: a firing
// alert on a tenant that stops receiving traffic clears on a plain GET once
// the windows have drained, with the transition published like any other.
func TestSLOIdleClearOnRead(t *testing.T) {
	clk := &serverClock{}
	clk.ns.Store(int64(1000 * time.Second))
	_, ts := testServer(t, assertd.Config{Clock: clk.now})

	createTenant(t, ts, "idle", assertd.TenantOptions{SLO: testSLOSpec()})
	submit(t, ts, "idle", leakerSrc)
	for i := 0; i < 35; i++ {
		drive(t, ts, "idle", 100, false)
		clk.advance(time.Second)
	}
	var mid slo.Status
	doJSON(t, "GET", ts.URL+"/tenants/idle/slo", nil, http.StatusOK, &mid)

	// Long idle: no records arrive, so only the read below can notice the
	// burn stopped. 70s also ages every violation out of the 60s window.
	clk.advance(70 * time.Second)
	var end slo.Status
	doJSON(t, "GET", ts.URL+"/tenants/idle/slo", nil, http.StatusOK, &end)
	if !end.Compliant {
		t.Fatalf("idle tenant not compliant after windows drained: %+v", end)
	}
}

// TestSLOFleetShipping wires a gcassertd at a live gcfleet collector: every
// alert transition ships a sealed SLO report under the composed host/tenant
// identity, and the collector's /fleet/slo rollup ranks the tenant.
func TestSLOFleetShipping(t *testing.T) {
	store, err := fleet.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fleetTS := httptest.NewServer(fleet.NewServer(store).Handler())
	defer fleetTS.Close()

	clk := &serverClock{}
	clk.ns.Store(int64(1000 * time.Second))
	_, ts := testServer(t, assertd.Config{
		InstanceID: "ship-host", FleetURL: fleetTS.URL, Clock: clk.now,
	})
	createTenant(t, ts, "leaky", assertd.TenantOptions{SLO: testSLOSpec()})
	submit(t, ts, "leaky", leakerSrc)
	for i := 0; i < 10; i++ {
		drive(t, ts, "leaky", 100, false)
		clk.advance(time.Second)
	}

	// Shipping is asynchronous (a dedicated sender goroutine), so poll the
	// collector until the firing report lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc fleet.SLORollup
		doJSON(t, "GET", fleetTS.URL+"/fleet/slo", nil, http.StatusOK, &doc)
		if doc.Firing >= 1 {
			row := doc.Tenants[0]
			if row.Instance != "ship-host/leaky" || row.Tenant != "leaky" {
				t.Fatalf("rollup row identity = %q/%q, want ship-host/leaky", row.Instance, row.Tenant)
			}
			if row.Compliant || row.MinBudgetRemaining != 0 {
				t.Fatalf("rollup row budget wrong: %+v", row)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no firing SLO report reached the collector; rollup: %+v", doc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSLOEndpoints covers the HTTP contract around the SLO resource:
// creation-time validation, the PUT/GET/DELETE lifecycle, and the 400/404
// error mapping.
func TestSLOEndpoints(t *testing.T) {
	_, ts := testServer(t, assertd.Config{})

	// Creation rejects a bad spec atomically — no tenant is left behind.
	bad := &slo.Spec{Objectives: []slo.Objective{{Kind: "nonsense"}}}
	doJSON(t, "POST", ts.URL+"/tenants",
		assertd.CreateRequest{ID: "broken", Options: assertd.TenantOptions{SLO: bad}},
		http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/tenants/broken", nil, http.StatusNotFound, nil)

	createTenant(t, ts, "plain", assertd.TenantOptions{})
	doJSON(t, "GET", ts.URL+"/tenants/plain/slo", nil, http.StatusNotFound, nil)
	doJSON(t, "PUT", ts.URL+"/tenants/plain/slo", bad, http.StatusBadRequest, nil)

	var st slo.Status
	doJSON(t, "PUT", ts.URL+"/tenants/plain/slo", testSLOSpec(), http.StatusOK, &st)
	if len(st.Objectives) != 1 || st.Objectives[0].Kind != slo.KindViolationRate {
		t.Fatalf("PUT returned %+v, want one violation_rate objective", st.Objectives)
	}
	if !st.Compliant {
		t.Fatal("fresh SLO should start compliant")
	}
	doJSON(t, "GET", ts.URL+"/tenants/plain/slo", nil, http.StatusOK, &st)

	doJSON(t, "DELETE", ts.URL+"/tenants/plain/slo", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/tenants/plain/slo", nil, http.StatusNotFound, nil)
	if stats := tenantStats(t, ts, "plain"); stats.SLO != nil {
		t.Fatal("stats still carry an slo section after DELETE")
	}
}
