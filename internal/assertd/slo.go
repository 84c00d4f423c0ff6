package assertd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gcassert/internal/fleet"
	"gcassert/internal/slo"
	"gcassert/internal/telemetry"
	"gcassert/internal/version"
)

// ErrNoSLO reports an SLO query against a tenant with none configured
// (HTTP 404: the resource /tenants/{id}/slo does not exist yet).
var ErrNoSLO = errors.New("no slo configured")

// ErrBadSLO wraps SLO spec validation failures (HTTP 400).
var ErrBadSLO = errors.New("bad slo spec")

// alertReplay is how many recent alert transitions the server retains for
// replay to newly attached /alerts subscribers. Alerts are rare and bursty;
// a subscriber that attaches between bursts must still see what fired.
const alertReplay = 64

// SetSLO validates spec, swaps in a fresh tracker (windows restart from
// now), and returns the tenant's initial status. A nil spec clears the SLO.
func (t *Tenant) SetSLO(spec *slo.Spec) (*slo.Status, error) {
	if spec == nil {
		t.sloT.Store(nil)
		t.pokeSnapshot()
		return nil, nil
	}
	tr, err := slo.New(*spec, t.clock)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSLO, err)
	}
	t.sloT.Store(tr)
	t.pokeSnapshot()
	st, _ := tr.Status()
	return &st, nil
}

// SLOStatus re-evaluates the tenant's SLO at the current clock (so a firing
// alert on a quiet tenant can clear on a read) and returns the judgment
// document. Safe from any goroutine: the tracker is internally locked and
// any transitions the evaluation causes publish through the same
// thread-safe sinks the record path uses.
func (t *Tenant) SLOStatus() (*slo.Status, error) {
	tr := t.sloT.Load()
	if tr == nil {
		return nil, fmt.Errorf("%w (tenant %s)", ErrNoSLO, t.id)
	}
	st, evs := tr.Status()
	t.publishAlerts(evs)
	return &st, nil
}

// pokeSnapshot takes and releases the guest so the cached stats snapshot
// (and the SLO metric gauges) reflect an out-of-band SLO change.
// Best-effort: a deleted tenant just skips it.
func (t *Tenant) pokeSnapshot() {
	_ = t.do(func(*guest) error { return nil })
}

// sloRecordRequests is the request-path seam: one atomic load and a nil
// check when no SLO is configured (BenchmarkLayersOff/SLO pins this at zero
// allocations). It returns the SLO engine's at-record-time judgment —
// whether this batch was SLO-bad — which the trace tail sampler consumes;
// with no SLO configured nothing is ever SLO-bad.
func (t *Tenant) sloRecordRequests(requests, failures, violations uint64) bool {
	tr := t.sloT.Load()
	if tr == nil {
		return false
	}
	bad, evs := tr.RecordRequestsMarked(requests, failures, violations)
	if len(evs) > 0 {
		t.publishAlerts(evs)
	}
	return bad
}

// sloRecordPause is the GC-path seam, fed from the telemetry OnRecord tap
// with the collection's total pause and its assertion-attributed share.
func (t *Tenant) sloRecordPause(pauseNs, assertNs int64) {
	tr := t.sloT.Load()
	if tr == nil {
		return
	}
	if evs := tr.RecordPause(pauseNs, assertNs); len(evs) > 0 {
		t.publishAlerts(evs)
	}
}

// publishAlerts stamps, marshals and fans out alert transitions: the
// server-wide /alerts SSE hub (with replay), the per-tenant transition
// counter, and — when a fleet collector is configured — a sealed SLO report
// envelope per transition. Safe from any goroutine.
func (t *Tenant) publishAlerts(evs []slo.AlertEvent) {
	for i := range evs {
		evs[i].Tenant = t.id
		t.metrics.alertTransitions.Inc()
		frame, err := json.Marshal(&evs[i])
		if err != nil {
			continue
		}
		t.srv.publishAlert(frame)
		if t.srv.sloShip != nil {
			if st, err := t.SLOStatusQuiet(); err == nil {
				t.srv.sloShip.ship(t.id, evs[i], *st)
			}
		}
	}
}

// SLOStatusQuiet returns the status document without re-publishing the
// transitions a re-evaluation might cause (used while already publishing).
func (t *Tenant) SLOStatusQuiet() (*slo.Status, error) {
	tr := t.sloT.Load()
	if tr == nil {
		return nil, ErrNoSLO
	}
	st, _ := tr.Status()
	return &st, nil
}

// publishAlert records one marshaled transition in the hub's replay ring
// and fans it out to /alerts subscribers.
func (s *Server) publishAlert(frame []byte) {
	s.alerts.Publish(frame)
}

// SubscribeAlerts subscribes to the server-wide alert stream. replay
// returns up to alertReplay recent transitions; subscribers see
// at-least-once delivery around attach time (a transition racing the
// subscription may appear in both the replay and the live stream).
func (s *Server) SubscribeAlerts(buf int) (frames <-chan []byte, replay [][]byte, cancel func(), ok bool) {
	return s.alerts.SubscribeReplay(buf)
}

// sloStateNum encodes an alert state for the gcassertd_slo_alert_state
// gauge: 0 ok, 1 pending, 2 firing.
func sloStateNum(state string) int64 {
	switch state {
	case "pending":
		return 1
	case "firing":
		return 2
	}
	return 0
}

// updateSLOMetrics refreshes the tenant's gcassertd_slo_* series from a
// status document. It runs after every command, so it looks each series up
// again rather than caching it: a registry hit takes one lock and allocates
// nothing, and new objectives (after a PUT) appear on the next refresh.
func (t *Tenant) updateSLOMetrics(st *slo.Status) {
	reg := t.srv.reg
	for _, o := range st.Objectives {
		tl := telemetry.Label{Name: "tenant", Value: t.id}
		ol := telemetry.Label{Name: "objective", Value: o.Name}
		reg.FloatGauge("gcassertd_slo_budget_remaining_ratio",
			"Error budget remaining over the compliance window (1 = untouched), by tenant and objective.",
			tl, ol).Set(o.BudgetRemainingRatio)
		for _, a := range o.Alerts {
			sl := telemetry.Label{Name: "severity", Value: a.Severity}
			reg.FloatGauge("gcassertd_slo_burn_rate",
				"Short-window error-budget burn rate (1 = spending at the sustainable rate), by tenant, objective and severity.",
				tl, ol, sl).Set(a.BurnShort)
			reg.Gauge("gcassertd_slo_alert_state",
				"Burn-rate alert state (0 ok, 1 pending, 2 firing), by tenant, objective and severity.",
				tl, ol, sl).Set(sloStateNum(a.State))
		}
	}
}

// sloShipper ships sealed envelopes (SLO reports, kept traces) to a gcfleet
// collector. Same discipline as the fleet census exporter: enqueue never
// blocks (alert transitions happen while a handler holds a tenant's guest,
// sometimes inside stop-the-world pauses), a dedicated sender goroutine
// owns all network I/O, and the bounded queue drops the oldest envelope on
// overflow.
type sloShipper struct {
	url    string
	ident  version.Identity
	client *http.Client

	mu    sync.Mutex
	queue [][]byte

	wake    chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	dropped atomic.Uint64
	sent    atomic.Uint64
	errs    atomic.Uint64
}

// sloShipQueueLimit bounds unsent SLO report envelopes.
const sloShipQueueLimit = 64

func newSLOShipper(url string, ident version.Identity) *sloShipper {
	sh := &sloShipper{
		url:    url,
		ident:  ident,
		client: &http.Client{Timeout: 5 * time.Second},
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	sh.wg.Add(1)
	go sh.sender()
	return sh
}

// ship seals one report under the composed host/tenant identity and queues
// it. Never blocks.
func (sh *sloShipper) ship(tenant string, ev slo.AlertEvent, st slo.Status) {
	payload, err := json.Marshal(&fleet.SLOReport{Tenant: tenant, Event: ev, Status: st})
	if err != nil {
		return
	}
	sh.shipEnvelope(fleet.KindSLO, fleet.SLORegistryRef, tenant, payload)
}

// shipEnvelope seals an arbitrary payload under the composed host/tenant
// identity and queues it. Never blocks.
func (sh *sloShipper) shipEnvelope(kind, registryRef, tenant string, payload []byte) {
	env, err := fleet.Seal(kind, registryRef, sh.ident.Sub(tenant),
		time.Now().UnixNano(), payload)
	if err != nil {
		return
	}
	wire, err := json.Marshal(&env)
	if err != nil {
		return
	}
	sh.mu.Lock()
	if len(sh.queue) >= sloShipQueueLimit {
		sh.queue = sh.queue[1:]
		sh.dropped.Add(1)
	}
	sh.queue = append(sh.queue, wire)
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

func (sh *sloShipper) sender() {
	defer sh.wg.Done()
	for {
		select {
		case <-sh.wake:
			sh.drain()
		case <-sh.stop:
			sh.drain()
			return
		}
	}
}

func (sh *sloShipper) drain() {
	for {
		sh.mu.Lock()
		if len(sh.queue) == 0 {
			sh.mu.Unlock()
			return
		}
		wire := sh.queue[0]
		sh.queue = sh.queue[1:]
		sh.mu.Unlock()
		if err := sh.post(wire); err != nil {
			sh.errs.Add(1)
		} else {
			sh.sent.Add(1)
		}
	}
}

func (sh *sloShipper) post(wire []byte) error {
	resp, err := sh.client.Post(sh.url+"/fleet/ingest", "application/json",
		bytes.NewReader(wire))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collector returned %s", resp.Status)
	}
	return nil
}

// close flushes the queue and stops the sender.
func (sh *sloShipper) close() {
	close(sh.stop)
	sh.wg.Wait()
}
