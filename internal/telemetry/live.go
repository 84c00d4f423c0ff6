package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The live GC-event feed (the /debug/gcassert/live SSE endpoint and
// in-process dashboards) fans out through a shared sse.Hub (the Tracer's
// live field). Publishing happens inside the stop-the-world pause, so the
// hub's contract is load-bearing here: the event is marshaled once (and
// only when someone is listening, via PublishJSON) and sends are
// non-blocking — a subscriber that cannot keep up loses frames rather than
// stalling the collector.

// serveLive implements /debug/gcassert/live: a Server-Sent Events stream
// pushing one `data: <event JSON>` frame per completed collection.
// ?replay=N resends the last N retained ring events before going live, so a
// dashboard attaching mid-run starts with history. The stream runs until
// the client disconnects; like every other endpoint it reads only the ring
// and the hub, so it is safe while the workload runs.
func (t *Tracer) serveLive(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported (response writer is not an http.Flusher)",
			http.StatusInternalServerError)
		return
	}
	replay, err := IntParam(r, "replay", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer SSE
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying so no collection can fall in the gap (a
	// cycle finishing during the replay may be sent twice; consumers key on
	// Seq).
	ch, cancel, _ := t.live.Subscribe(64) // the live hub never closes
	defer cancel()
	if replay > 0 {
		evs := t.Events()
		if len(evs) > replay {
			evs = evs[len(evs)-replay:]
		}
		for i := range evs {
			frame, err := json.Marshal(&evs[i])
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return
			}
		}
	}
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case frame, open := <-ch:
			if !open {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// LiveDropped returns the number of live frames dropped because a
// subscriber's channel was full. A rising value means some dashboard is not
// keeping up — the collector is unaffected.
func (t *Tracer) LiveDropped() uint64 { return t.live.Dropped() }

// SubscribeLive registers a live subscriber fed one JSON-encoded Event per
// completed collection (buf bounds the per-subscriber queue; slow readers
// lose frames, they are never allowed to block a collection). The returned
// cancel must be called when done; it closes the channel.
func (t *Tracer) SubscribeLive(buf int) (<-chan []byte, func()) {
	ch, cancel, _ := t.live.Subscribe(buf) // the live hub never closes
	return ch, cancel
}
