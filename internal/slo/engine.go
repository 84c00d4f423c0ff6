package slo

import (
	"math"
	"sync"
	"time"
)

// State is an alert rule's position in its lifecycle.
type State int

const (
	// StateOK: neither window burns above the rule's threshold.
	StateOK State = iota
	// StatePending: the short window burns above the threshold but the long
	// window does not yet — the budget is burning fast but the problem is
	// not yet proven sustained.
	StatePending
	// StateFiring: both windows burn above the threshold.
	StateFiring
)

// String renders the wire spelling.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return "ok"
}

// AlertEvent is one alert state transition, the unit published on the
// /alerts SSE stream and shipped to the fleet collector.
type AlertEvent struct {
	// Tenant is filled in by the hosting service (the engine does not know
	// its tenant's name).
	Tenant    string `json:"tenant,omitempty"`
	Objective string `json:"objective"`
	Kind      string `json:"kind"`
	Severity  string `json:"severity"` // "fast" or "slow"
	State     string `json:"state"`    // new state
	Prev      string `json:"prev"`     // previous state
	// BurnShort and BurnLong are the rule's window burn rates at transition
	// time; Threshold the rule's burn threshold.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Threshold float64 `json:"threshold"`
	// BudgetRemainingRatio is the objective's error budget left over the
	// compliance window, 0..1.
	BudgetRemainingRatio float64 `json:"budget_remaining_ratio"`
	UnixNs               int64   `json:"unix_ns"`
}

// AlertStatus is one rule's current state in a status document.
type AlertStatus struct {
	Severity    string  `json:"severity"`
	State       string  `json:"state"`
	SinceUnixNs int64   `json:"since_unix_ns,omitempty"`
	BurnShort   float64 `json:"burn_short"`
	BurnLong    float64 `json:"burn_long"`
	Threshold   float64 `json:"threshold"`
}

// ObjectiveStatus is one objective's full accounting in a status document.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Threshold float64 `json:"threshold"` // in the objective's natural unit
	// BudgetFraction is the allowed bad/total ratio the threshold implies.
	BudgetFraction float64 `json:"budget_fraction"`
	// WindowTotal and WindowBad are the raw event counts over the
	// compliance window (requests, pauses, or nanoseconds by kind).
	WindowTotal uint64 `json:"window_total"`
	WindowBad   uint64 `json:"window_bad"`
	// BudgetRemainingRatio is 1 − spent/allowed over the compliance window,
	// clamped to [0, 1]; 1 when the window holds no events yet.
	BudgetRemainingRatio float64 `json:"budget_remaining_ratio"`
	// Met reports whether the objective currently holds over the window.
	Met    bool          `json:"met"`
	Alerts []AlertStatus `json:"alerts"`
}

// Status is the judgment document served on GET /tenants/{id}/slo.
type Status struct {
	ConfiguredUnixNs int64             `json:"configured_unix_ns"`
	Window           Duration          `json:"window"`
	Objectives       []ObjectiveStatus `json:"objectives"`
	// Compliant is true when every objective is met and no rule fires.
	Compliant bool `json:"compliant"`
	// WorstBurn is the highest short-window fast-rule burn across
	// objectives, with the objective that produced it — the fleet rollup's
	// ranking key.
	WorstBurn      float64 `json:"worst_burn"`
	WorstObjective string  `json:"worst_objective,omitempty"`
}

// alertRule is one severity's live state.
type alertRule struct {
	severity  string
	shortNs   int64
	longNs    int64
	threshold float64
	clearHold int64 // ns the short burn must stay low before a clear
	clearAt   float64

	state      State
	sinceNs    int64
	lastHighNs int64 // while firing: last evaluation with short burn ≥ clearAt
	burnShort  float64
	burnLong   float64
}

// objectiveState is one objective's ring plus its two alert rules.
type objectiveState struct {
	o          Objective
	budgetFrac float64
	ring       ring
	rules      [2]alertRule // fast, slow
}

// Tracker is one tenant's live SLO engine. All methods are safe for
// concurrent use; the record path takes one mutex and performs no
// allocations (transitions, which are rare, allocate their events).
type Tracker struct {
	mu         sync.Mutex
	spec       Spec // normalized
	wire       Spec // as configured, for round-tripping
	now        func() time.Time
	configured int64
	objs       []objectiveState
}

// New builds a tracker from a wire spec. clock may be nil (wall clock).
func New(spec Spec, clock func() time.Time) (*Tracker, error) {
	norm, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = time.Now
	}
	t := &Tracker{spec: norm, wire: spec, now: clock, configured: clock().UnixNano()}
	span := int64(norm.longestWindow())
	a := norm.Alerting
	for _, o := range norm.Objectives {
		os := objectiveState{o: o, budgetFrac: o.budgetFraction(), ring: newRing(span)}
		os.rules[0] = alertRule{
			severity: SeverityFast, shortNs: int64(a.FastShort), longNs: int64(a.FastLong),
			threshold: a.FastBurn, clearHold: int64(a.ClearHold), clearAt: a.ClearRatio * a.FastBurn,
		}
		os.rules[1] = alertRule{
			severity: SeveritySlow, shortNs: int64(a.SlowShort), longNs: int64(a.SlowLong),
			threshold: a.SlowBurn, clearHold: int64(a.ClearHold), clearAt: a.ClearRatio * a.SlowBurn,
		}
		t.objs = append(t.objs, os)
	}
	return t, nil
}

// Spec returns the spec as originally configured (wire form).
func (t *Tracker) Spec() Spec { return t.wire }

// RecordRequests folds a batch of request outcomes into every
// request-driven objective (availability, violation_rate) and evaluates.
// Returned events are the alert transitions this record caused (usually
// nil).
func (t *Tracker) RecordRequests(requests, failures, violations uint64) []AlertEvent {
	_, evs := t.RecordRequestsMarked(requests, failures, violations)
	return evs
}

// RecordRequestsMarked is RecordRequests plus the at-record-time judgment
// the tracing layer's tail sampler consumes: bad reports whether this batch
// contributed at least one bad unit to a request-driven objective the
// tenant actually declared (a failure against an availability objective, a
// violation against a violation-rate objective). The judgment is made here,
// under the same lock that folds the units in, so a request marked good can
// never later turn out to have spent budget.
func (t *Tracker) RecordRequestsMarked(requests, failures, violations uint64) (bad bool, evs []AlertEvent) {
	if requests == 0 && violations == 0 {
		return false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nowNs := t.now().UnixNano()
	for i := range t.objs {
		switch t.objs[i].o.Kind {
		case KindAvailability:
			t.objs[i].ring.add(nowNs, requests, failures)
			if failures > 0 {
				bad = true
			}
		case KindViolationRate:
			t.objs[i].ring.add(nowNs, requests, violations)
			if violations > 0 {
				bad = true
			}
		}
	}
	return bad, t.evaluateLocked(nowNs)
}

// RecordPause folds one collection into the pause and cost objectives:
// pauseNs is the stop-the-world time, assertNs the assertion-attributed
// share of it.
func (t *Tracker) RecordPause(pauseNs, assertNs int64) []AlertEvent {
	if pauseNs < 0 {
		return nil
	}
	if assertNs < 0 {
		assertNs = 0
	}
	if assertNs > pauseNs {
		assertNs = pauseNs // attribution noise must not invent negative good time
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nowNs := t.now().UnixNano()
	for i := range t.objs {
		switch t.objs[i].o.Kind {
		case KindPauseP99:
			bad := uint64(0)
			if float64(pauseNs) > t.objs[i].o.MaxMs*1e6 {
				bad = 1
			}
			t.objs[i].ring.add(nowNs, 1, bad)
		case KindAssertCost:
			t.objs[i].ring.add(nowNs, uint64(pauseNs), uint64(assertNs))
		}
	}
	return t.evaluateLocked(nowNs)
}

// burn computes a window's burn rate: the observed bad fraction over the
// allowed fraction. No events in the window burns nothing.
func burn(total, bad uint64, budgetFrac float64) float64 {
	if total == 0 || budgetFrac <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budgetFrac
}

// evaluateLocked re-derives every rule's burn rates and steps the state
// machines, returning the transitions.
func (t *Tracker) evaluateLocked(nowNs int64) []AlertEvent {
	var events []AlertEvent
	for i := range t.objs {
		os := &t.objs[i]
		remaining := t.budgetRemainingLocked(os, nowNs)
		for ri := range os.rules {
			r := &os.rules[ri]
			st, sb := os.ring.sum(nowNs, r.shortNs)
			lt, lb := os.ring.sum(nowNs, r.longNs)
			r.burnShort = burn(st, sb, os.budgetFrac)
			r.burnLong = burn(lt, lb, os.budgetFrac)

			prev := r.state
			switch r.state {
			case StateOK:
				switch {
				case r.burnShort >= r.threshold && r.burnLong >= r.threshold:
					r.state, r.sinceNs, r.lastHighNs = StateFiring, nowNs, nowNs
				case r.burnShort >= r.threshold:
					r.state, r.sinceNs = StatePending, nowNs
				}
			case StatePending:
				switch {
				case r.burnShort >= r.threshold && r.burnLong >= r.threshold:
					r.state, r.sinceNs, r.lastHighNs = StateFiring, nowNs, nowNs
				case r.burnShort < r.threshold:
					r.state, r.sinceNs = StateOK, nowNs
				}
			case StateFiring:
				// Hysteresis: clear only once clearHold has passed since the
				// last evaluation that saw the short-window burn at or above
				// clearAt. Measuring from the last high observation (rather
				// than the first low one) lets a long-idle tenant clear on a
				// single status read — the drained window is the evidence
				// the burn stopped, not the read that noticed it.
				if r.burnShort >= r.clearAt {
					r.lastHighNs = nowNs
				} else if nowNs-r.lastHighNs >= r.clearHold {
					r.state, r.sinceNs = StateOK, nowNs
				}
			}
			if r.state != prev {
				events = append(events, AlertEvent{
					Objective: os.o.Name, Kind: os.o.Kind,
					Severity: r.severity, State: r.state.String(), Prev: prev.String(),
					BurnShort: r.burnShort, BurnLong: r.burnLong, Threshold: r.threshold,
					BudgetRemainingRatio: remaining, UnixNs: nowNs,
				})
			}
		}
	}
	return events
}

// budgetRemainingLocked computes 1 − spent/allowed over the compliance
// window, clamped to [0, 1]. An empty window has a full budget.
func (t *Tracker) budgetRemainingLocked(os *objectiveState, nowNs int64) float64 {
	total, bad := os.ring.sum(nowNs, int64(t.spec.Window))
	if total == 0 {
		return 1
	}
	allowed := os.budgetFrac * float64(total)
	if allowed <= 0 {
		if bad == 0 {
			return 1
		}
		return 0
	}
	rem := 1 - float64(bad)/allowed
	return math.Max(0, math.Min(1, rem))
}

// Status re-evaluates at the current clock and returns the judgment
// document plus any transitions the evaluation caused (a quiet tenant's
// firing alert clears on a status read once the hold has passed, not only
// on the next record).
func (t *Tracker) Status() (Status, []AlertEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowNs := t.now().UnixNano()
	events := t.evaluateLocked(nowNs)

	doc := Status{
		ConfiguredUnixNs: t.configured,
		Window:           t.spec.Window,
		Objectives:       make([]ObjectiveStatus, 0, len(t.objs)),
		Compliant:        true,
	}
	// Every objective's alerts, one per rule, are carved from one slice.
	alerts := make([]AlertStatus, 0, 2*len(t.objs))
	for i := range t.objs {
		os := &t.objs[i]
		total, bad := os.ring.sum(nowNs, int64(t.spec.Window))
		s := ObjectiveStatus{
			Name:                 os.o.Name,
			Kind:                 os.o.Kind,
			Threshold:            os.o.threshold(),
			BudgetFraction:       os.budgetFrac,
			WindowTotal:          total,
			WindowBad:            bad,
			BudgetRemainingRatio: t.budgetRemainingLocked(os, nowNs),
			Met:                  total == 0 || float64(bad) <= os.budgetFrac*float64(total),
		}
		first := len(alerts)
		for ri := range os.rules {
			r := &os.rules[ri]
			alerts = append(alerts, AlertStatus{
				Severity: r.severity, State: r.state.String(), SinceUnixNs: r.sinceNs,
				BurnShort: r.burnShort, BurnLong: r.burnLong, Threshold: r.threshold,
			})
			if r.state != StateOK {
				doc.Compliant = false
			}
		}
		s.Alerts = alerts[first:len(alerts):len(alerts)]
		if !s.Met {
			doc.Compliant = false
		}
		if fast := os.rules[0].burnShort; fast > doc.WorstBurn {
			doc.WorstBurn, doc.WorstObjective = fast, os.o.Name
		}
		doc.Objectives = append(doc.Objectives, s)
	}
	return doc, events
}
