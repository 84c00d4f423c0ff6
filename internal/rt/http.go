package rt

import (
	"encoding/json"
	"io"
	"net/http"

	"gcassert/internal/fleet"
	"gcassert/internal/telemetry"
	"gcassert/internal/version"
)

// TelemetryHandler returns the runtime's debug HTTP surface, built from one
// route table: the tracer's own routes (/metrics, the event trace, the
// violation log, the live feed) and one route per other layer's document.
// A route whose layer is off answers 404 with what enables it, and the
// index (/debug/gcassert/) flags it. It panics when the runtime was created
// without Config.Telemetry.
//
// Every route except the heap profile and the flight bundle reads only
// atomics and mutex-guarded copies, so it is safe to scrape while the
// workload runs. Those two walk the managed heap and must only be hit while
// the runtime is quiescent (the runtime is single-goroutine; a scrape
// during a mutator step reads a heap mid-mutation).
func (r *Runtime) TelemetryHandler() http.Handler {
	if r.tel == nil {
		panic("gcassert: TelemetryHandler requires Options.Telemetry")
	}
	// layer stands a route in for its layer: when the layer is off the
	// route answers 404 with why, and the index names what enables it.
	layer := func(on bool, rt telemetry.Route, enable, why string) telemetry.Route {
		if !on {
			rt.Enable = enable
			rt.Handler = func(w http.ResponseWriter, _ *http.Request) { http.Error(w, why, http.StatusNotFound) }
		}
		return rt
	}
	layers := []telemetry.Route{
		{Pattern: "/debug/gcassert/heap", Desc: "live-heap profile by type", Handler: r.serveHeap},
		layer(r.census != nil, telemetry.Route{Pattern: "/debug/gcassert/census", Desc: "per-type census snapshots (?last=N)", Handler: r.serveCensus},
			"Introspection", "no census source installed (enable Introspection)"),
		layer(r.census != nil, telemetry.Route{Pattern: "/debug/gcassert/leaks", Desc: "leak suspects (?window=N&top=N)", Handler: r.serveLeaks},
			"Introspection", "no leak source installed (enable Introspection)"),
		layer(r.flight != nil, telemetry.Route{Pattern: "/debug/gcassert/fr", Desc: "flight-recorder bundle", Handler: r.serveFlight},
			"FlightRecorder", "no flight recorder installed (enable FlightRecorder)"),
		layer(r.fleetx != nil, telemetry.Route{Pattern: "/debug/gcassert/fleet", Desc: "fleet exporter status (POST ?export=now to ship a census)", Handler: r.serveFleet},
			"a fleet exporter (FleetURL)", "no fleet exporter installed (set FleetURL)"),
	}
	// The index lists the layers' documents between the tracer's log and its
	// live feed.
	own := r.tel.Routes()
	live := len(own) - 1
	return telemetry.Serve(append(append(own[:live:live], layers...), own[live]))
}

// serveDoc answers with the document write renders, or 500 with its error.
func serveDoc(w http.ResponseWriter, contentType string, write func(io.Writer) error) {
	w.Header().Set("Content-Type", contentType)
	if err := write(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (r *Runtime) serveHeap(w http.ResponseWriter, _ *http.Request) {
	serveDoc(w, "text/plain; charset=utf-8", func(w io.Writer) error { return r.WriteHeapProfile(w, 0) })
}

func (r *Runtime) serveCensus(w http.ResponseWriter, req *http.Request) {
	n, err := telemetry.IntParam(req, "last", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	serveDoc(w, "application/json", func(w io.Writer) error { return r.census.WriteJSON(w, n) })
}

func (r *Runtime) serveLeaks(w http.ResponseWriter, req *http.Request) {
	window, err := telemetry.IntParam(req, "window", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	top, err := telemetry.IntParam(req, "top", 10)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	serveDoc(w, "application/json", func(w io.Writer) error { return r.census.WriteSuspectsJSON(w, window, top) })
}

func (r *Runtime) serveFlight(w http.ResponseWriter, _ *http.Request) {
	serveDoc(w, "application/json", func(w io.Writer) error { return r.flight.WriteBundle(w, "http") })
}

// serveFleet is the exporter's identity and counters, plus — on POST
// ?export=now — the hash of a census envelope sealed on demand, or the
// reason none could be.
func (r *Runtime) serveFleet(w http.ResponseWriter, req *http.Request) {
	export := req.URL.Query().Get("export") == "now"
	if export && req.Method != http.MethodPost {
		http.Error(w, "POST to trigger an on-demand export", http.StatusMethodNotAllowed)
		return
	}
	fx := r.fleetx
	doc := struct {
		Instance version.Identity  `json:"instance"`
		Stats    fleet.ExportStats `json:"stats"`
		Exported string            `json:"exported_hash,omitempty"`
		Error    string            `json:"export_error,omitempty"`
	}{Instance: fx.Identity()}
	if export {
		if hash, err := fx.ExportLatest(); err != nil {
			doc.Error = err.Error()
		} else {
			doc.Exported = hash
		}
	}
	doc.Stats = fx.Stats()
	serveDoc(w, "application/json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&doc)
	})
}
