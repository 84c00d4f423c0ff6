package collector

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

	numPhases = 3
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

// Observer is notified at both ends of every collection. Everything an
// observer needs about the cycle is on the record: phase windows, per-kind
// costs, the trigger. Nothing is added to the mark loop.
//
// Both methods run inside the stop-the-world collection on the runtime's
// goroutine; implementations must not allocate on or write to the managed
// heap. The record belongs to the collector and is reused by the next
// collection: an observer copies what it keeps.
type Observer interface {
	// GCBegin runs before any phase, with the record being built: Seq,
	// Reason, Start and Request are set. It may stamp the record.
	GCBegin(col *Collection)
	// GCEnd runs after the sweep, with the completed record. Every object
	// still allocated then is a survivor of the cycle.
	GCEnd(col *Collection)
}
