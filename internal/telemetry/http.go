package telemetry

import (
	"fmt"
	"net/http"
	"strconv"
)

// Route is one entry of a debug HTTP surface: the mux pattern it is
// registered under, its handler, and a one-line description for the index.
// Serve registers and indexes the same slice, so the index can never list a
// route that is not registered, nor miss one that is.
type Route struct {
	Pattern string
	Desc    string
	Handler http.HandlerFunc
	// Enable, when set, marks the route unavailable: the index flags it and
	// names what turns it on.
	Enable string
}

// Routes returns the tracer's own routes: metrics, the event trace, the
// violation log and the live feed, in that order.
func (t *Tracer) Routes() []Route {
	return []Route{
		{
			Pattern: "/metrics",
			Desc:    "Prometheus text exposition",
			Handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				_ = t.WriteMetrics(w)
			},
		},
		{
			Pattern: "/debug/gcassert/trace",
			Desc:    "GC event trace (?format=jsonl|gctrace|chrome)",
			Handler: func(w http.ResponseWriter, r *http.Request) {
				switch f := r.URL.Query().Get("format"); f {
				case "chrome":
					w.Header().Set("Content-Type", "application/json")
					_ = t.WriteChromeTrace(w)
				case "gctrace":
					w.Header().Set("Content-Type", "text/plain; charset=utf-8")
					_ = t.WriteGoTrace(w)
				case "", "jsonl":
					w.Header().Set("Content-Type", "application/x-ndjson")
					_ = t.WriteJSONL(w)
				default:
					http.Error(w, fmt.Sprintf("unknown format %q (want jsonl, gctrace or chrome)", f), http.StatusBadRequest)
				}
			},
		},
		{
			Pattern: "/debug/gcassert/violations",
			Desc:    "recent violation reports",
			Handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				reports, total := t.Violations()
				fmt.Fprintf(w, "# %d violations logged, %d retained\n", total, len(reports))
				for _, rep := range reports {
					fmt.Fprintln(w, rep)
				}
			},
		},
		{
			Pattern: "/debug/gcassert/live",
			Desc:    "live GC event stream (SSE; ?replay=N resends recent events)",
			Handler: t.serveLive,
		},
	}
}

// Handler serves the tracer's own routes and their index. Every one reads
// only atomics and mutex-guarded copies, so it is safe to scrape while the
// workload runs. A runtime's full debug surface, with every other layer's
// routes beside these, is rt.Runtime.TelemetryHandler.
func (t *Tracer) Handler() http.Handler { return Serve(t.Routes()) }

// Serve registers every route, plus /debug/gcassert/ itself, which serves an
// index of the same slice in its order.
func Serve(routes []Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc(indexPattern, func(w http.ResponseWriter, r *http.Request) {
		// The pattern is a subtree match; anything but the index itself is an
		// unknown endpoint.
		if r.URL.Path != indexPattern {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "gcassert debug endpoints\n\n")
		for _, rt := range routes {
			suffix := ""
			if rt.Enable != "" {
				suffix = fmt.Sprintf("  [unavailable: enable %s]", rt.Enable)
			}
			fmt.Fprintf(w, "%-28s %s%s\n", rt.Pattern, rt.Desc, suffix)
		}
		fmt.Fprintf(w, "%-28s %s\n", indexPattern, "this index")
	})
	return mux
}

// indexPattern is where the endpoint index itself is served.
const indexPattern = "/debug/gcassert/"

// IntParam parses an optional non-negative integer query parameter.
func IntParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s=%q (want a non-negative integer)", name, s)
	}
	return n, nil
}
