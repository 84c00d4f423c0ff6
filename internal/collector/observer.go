package collector

import "time"

// Reason is a stable label recording why a collection ran. It is a string
// type so ad-hoc reasons (tests, tools) still work, but all runtime-
// triggered collections use the typed constants below so telemetry labels
// never drift.
type Reason string

// Collection reasons used by the runtime.
const (
	// ReasonAllocFailure is a collection triggered by an allocation that
	// could not be satisfied.
	ReasonAllocFailure Reason = "alloc-failure"
	// ReasonForced is an explicit Collect call.
	ReasonForced Reason = "forced"
)

// Phase identifies one phase of a collection cycle.
type Phase uint8

// Collection phases, in cycle order.
const (
	// PhaseOwnership is the assertion engine's ownership pre-phase (§2.5.2);
	// it only runs in Infrastructure mode with hooks installed.
	PhaseOwnership Phase = iota
	// PhaseMark is the root scan plus transitive mark.
	PhaseMark
	// PhaseSweep is the heap sweep.
	PhaseSweep
)

func (p Phase) String() string {
	switch p {
	case PhaseOwnership:
		return "ownership"
	case PhaseMark:
		return "mark"
	case PhaseSweep:
		return "sweep"
	default:
		return "unknown"
	}
}

// Observer receives collection-lifecycle notifications. It is the
// collector's telemetry tap: when nil (the default) the only cost is one
// nil-check per phase — nothing is added to the per-object mark path, so
// Base-mode tracing is unperturbed.
//
// All methods run inside the stop-the-world collection on the runtime's
// goroutine; implementations must not touch the managed heap.
type Observer interface {
	// GCBegin runs first, before any phase.
	GCBegin(seq uint64, reason Reason)
	// PhaseBegin runs immediately before the phase's work starts.
	PhaseBegin(p Phase)
	// PhaseEnd runs after the phase completes; d is the measured duration
	// (identical to the value recorded in the Collection).
	PhaseEnd(p Phase, d time.Duration)
	// GCEnd receives the completed record after stats are accumulated.
	GCEnd(col *Collection)
}

// TeeObserver fans every callback out to multiple observers, in order. The
// runtime uses it when both telemetry and heap introspection are enabled.
type TeeObserver []Observer

// GCBegin implements Observer.
func (t TeeObserver) GCBegin(seq uint64, reason Reason) {
	for _, o := range t {
		o.GCBegin(seq, reason)
	}
}

// PhaseBegin implements Observer.
func (t TeeObserver) PhaseBegin(p Phase) {
	for _, o := range t {
		o.PhaseBegin(p)
	}
}

// PhaseEnd implements Observer.
func (t TeeObserver) PhaseEnd(p Phase, d time.Duration) {
	for _, o := range t {
		o.PhaseEnd(p, d)
	}
}

// GCEnd implements Observer.
func (t TeeObserver) GCEnd(col *Collection) {
	for _, o := range t {
		o.GCEnd(col)
	}
}
