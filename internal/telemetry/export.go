package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteJSONL writes one JSON object per event per line — the machine-
// readable trace format (ndjson).
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// GoTraceLine formats one event as a Go-gctrace-style one-liner:
//
//	gc 3 @1.234s 2%: 0.10+0.85+0.21 ms own+mark+sweep, 1234 marked, 56 freed, 890 live (alloc-failure)
//
// start anchors the @-offset; gcFrac is the cumulative fraction of wall
// time spent in GC so far (pass 0 to omit the computation's inputs — the
// column is always printed).
func GoTraceLine(e *Event, start time.Time, gcFrac float64) string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return fmt.Sprintf("gc %d @%.3fs %d%%: %.2f+%.2f+%.2f ms own+mark+sweep, %d marked, %d freed, %d live (%s)",
		e.Seq+1,
		time.Duration(e.StartUnixNs-start.UnixNano()).Seconds(),
		int(gcFrac*100+0.5),
		ms(e.PhaseNs("ownership")), ms(e.PhaseNs("mark")), ms(e.PhaseNs("sweep")),
		e.ObjectsMarked, e.ObjectsFreed, e.ObjectsLive, e.Reason)
}

// WriteGoTrace writes the events as gctrace-style lines, computing the
// cumulative GC fraction column from the trace itself, and closes with a
// `# pause summary:` percentile line over the retained pauses.
func WriteGoTrace(w io.Writer, events []Event, start time.Time) error {
	var gcNs int64
	for i := range events {
		e := &events[i]
		gcNs += e.TotalNs
		frac := 0.0
		if wall := e.StartUnixNs + e.TotalNs - start.UnixNano(); wall > 0 {
			frac = float64(gcNs) / float64(wall)
		}
		if _, err := fmt.Fprintln(w, GoTraceLine(e, start, frac)); err != nil {
			return err
		}
	}
	if len(events) > 0 {
		p50, p95, p99, max := pauseQuantiles(events)
		if _, err := fmt.Fprintf(w, "# pause summary: p50=%v p95=%v p99=%v max=%v (%d collections)\n",
			p50, p95, p99, max, len(events)); err != nil {
			return err
		}
	}
	return nil
}

// pauseQuantiles computes exact pause percentiles from the retained events
// (unlike the pause histogram, which is bucketed but covers evicted events
// too).
func pauseQuantiles(events []Event) (p50, p95, p99, max time.Duration) {
	ns := make([]int64, len(events))
	for i := range events {
		ns[i] = events[i].TotalNs
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(ns)-1))
		return time.Duration(ns[i])
	}
	return at(0.50), at(0.95), at(0.99), time.Duration(ns[len(ns)-1])
}

// chromeEvent is one entry of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope Perfetto and chrome://tracing
// both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the events in Chrome trace_event JSON: one
// complete ("X") slice per collection with nested slices per phase, so a
// run opens directly in chrome://tracing or https://ui.perfetto.dev.
// Timestamps are microseconds since the first event.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "gcassert"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "GC (stop-the-world)"}},
	}}
	var epoch int64
	if len(events) > 0 {
		epoch = events[0].StartUnixNs
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i := range events {
		e := &events[i]
		args := map[string]any{
			"reason": e.Reason,
			"roots":  e.RootsScanned,
			"marked": e.ObjectsMarked,
			"freed":  e.ObjectsFreed,
			"live":   e.ObjectsLive,
		}
		for _, k := range e.Kinds {
			if k.Checks != 0 || k.Violations != 0 {
				args[k.Kind] = fmt.Sprintf("%d checks, %d violations", k.Checks, k.Violations)
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("GC #%d (%s)", e.Seq, e.Reason),
			Cat:  "gc", Ph: "X",
			Ts: us(e.StartUnixNs - epoch), Dur: us(e.TotalNs),
			Pid: 1, Tid: 1, Args: args,
		})
		for _, p := range e.Phases {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: p.Phase,
				Cat:  "gc-phase", Ph: "X",
				Ts: us(p.StartUnixNs - epoch), Dur: us(p.DurNs),
				Pid: 1, Tid: 1,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}
