package assertd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"gcassert/internal/slo"
	"gcassert/internal/trace"
)

// maxProgramBytes bounds a submitted MJ source body.
const maxProgramBytes = 1 << 20

// maxJSONBody bounds a JSON request body (create, drive, SLO).
const maxJSONBody = 1 << 16

// maxDriveBatch bounds one drive batch: a drive holds its tenant's guest
// until the batch completes, so an unbounded batch would let one client
// monopolize its tenant far past any request timeout.
const maxDriveBatch = 100_000

// Handler returns the service's HTTP surface:
//
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus text (tenant label on every per-tenant series)
//	POST   /tenants                  create  {"id": ..., "options": {...}}
//	GET    /tenants                  list    [TenantStats]
//	GET    /tenants/{id}             stats   TenantStats
//	DELETE /tenants/{id}             delete
//	POST   /tenants/{id}/program     submit MJ source (raw body) -> ProgramInfo
//	POST   /tenants/{id}/drive       {"requests": N, "collect": bool} -> DriveResult
//	POST   /tenants/{id}/collect     force one collection
//	GET    /tenants/{id}/violations  SSE stream of ViolationFrame JSON
//	GET    /tenants/{id}/events      SSE stream of GC events (?replay=N)
//	PUT    /tenants/{id}/slo         set/replace the tenant's SLO spec (JSON)
//	GET    /tenants/{id}/slo         fresh SLO status + remaining error budget
//	DELETE /tenants/{id}/slo         clear the tenant's SLO
//	GET    /tenants/{id}/traces      stored trace summaries, newest first
//	GET    /tenants/{id}/traces/{traceID}  one stored trace document
//	GET    /alerts                   SSE stream of SLO alert transitions, all tenants
//
// Every handler runs behind the traceparent middleware: an incoming W3C
// traceparent header is parsed and echoed back; a traced drive overrides
// the echo with the trace context it created, so the caller learns the
// trace ID that will resolve against /tenants/{id}/traces.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("POST /tenants", s.handleCreate)
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /tenants/{id}", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, t.Stats())
	}))
	mux.HandleFunc("DELETE /tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.DeleteTenant(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
	})
	mux.HandleFunc("POST /tenants/{id}/program", s.withTenant(s.handleProgram))
	mux.HandleFunc("POST /tenants/{id}/drive", s.withTenant(s.handleDrive))
	mux.HandleFunc("POST /tenants/{id}/collect", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		if err := t.Collect(); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, t.Stats())
	}))
	mux.HandleFunc("GET /tenants/{id}/violations", s.withTenant(s.handleViolations))
	mux.HandleFunc("GET /tenants/{id}/events", s.withTenant(s.handleEvents))
	mux.HandleFunc("PUT /tenants/{id}/slo", s.withTenant(s.handleSetSLO))
	mux.HandleFunc("GET /tenants/{id}/slo", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		st, err := t.SLOStatus()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}))
	mux.HandleFunc("DELETE /tenants/{id}/slo", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		if _, err := t.SetSLO(nil); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"cleared": t.ID()})
	}))
	mux.HandleFunc("GET /tenants/{id}/traces", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		sums, err := t.Traces()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sums)
	}))
	mux.HandleFunc("GET /tenants/{id}/traces/{traceID}", s.withTenant(func(t *Tenant, w http.ResponseWriter, r *http.Request) {
		doc, err := t.TraceByID(r.PathValue("traceID"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	}))
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	return withTraceparent(mux)
}

// traceCtxKey carries the extracted inbound trace context through the
// request context.
type traceCtxKey struct{}

// withTraceparent is the distributed-tracing middleware: it extracts the
// W3C traceparent header on every request (stashing the span context for
// handlers that continue the trace) and injects one into every response —
// callers that sent a context get it echoed even on untraced endpoints, so
// log correlation works uniformly across the whole surface.
func withTraceparent(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sc, ok := trace.ParseTraceparent(r.Header.Get(trace.Header)); ok {
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, sc))
			w.Header().Set(trace.Header, sc.Traceparent())
		}
		next.ServeHTTP(w, r)
	})
}

// spanContext returns the request's extracted inbound trace context (the
// zero SpanContext when the caller sent none).
func spanContext(r *http.Request) trace.SpanContext {
	sc, _ := r.Context().Value(traceCtxKey{}).(trace.SpanContext)
	return sc
}

// handleSetSLO installs or replaces a tenant's SLO spec. The window
// accounting restarts from now — changing objectives mid-window re-judges
// under the new contract, it does not re-interpret old history.
func (s *Server) handleSetSLO(t *Tenant, w http.ResponseWriter, r *http.Request) {
	var spec slo.Spec
	if !readJSON(w, r, "slo", &spec) {
		return
	}
	st, err := t.SetSLO(&spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleAlerts streams SLO alert transitions for every tenant as SSE,
// replaying recent transitions first so a subscriber attaching after a
// burst still sees it (delivery is at-least-once around attach time). Slow
// clients lose frames rather than stall tenants.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported (response writer is not an http.Flusher)",
			http.StatusInternalServerError)
		return
	}
	ch, replay, cancel, ok := s.SubscribeAlerts(256)
	if !ok {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	defer cancel()
	sseHeaders(w)
	for _, frame := range replay {
		if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
			return
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

// withTenant resolves {id} and 404s unknown tenants.
func (s *Server) withTenant(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Tenant(r.PathValue("id"))
		if !ok {
			writeError(w, fmt.Errorf("%w: %s", ErrTenantNotFound, r.PathValue("id")))
			return
		}
		h(t, w, r)
	}
}

// CreateRequest is the POST /tenants body.
type CreateRequest struct {
	ID      string        `json:"id"`
	Options TenantOptions `json:"options"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !readJSON(w, r, "create", &req) {
		return
	}
	t, err := s.CreateTenant(req.ID, req.Options)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.Stats())
}

func (s *Server) handleProgram(t *Tenant, w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(io.LimitReader(r.Body, maxProgramBytes+1))
	if err != nil {
		http.Error(w, "reading program: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(src) > maxProgramBytes {
		http.Error(w, "program too large", http.StatusRequestEntityTooLarge)
		return
	}
	info, err := t.Submit(string(src))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// DriveRequest is the POST /tenants/{id}/drive body. It matches the
// loadlab.HTTPDrive wire contract on the request side; DriveResult matches
// it on the response side.
type DriveRequest struct {
	Requests int  `json:"requests"`
	Collect  bool `json:"collect,omitempty"`
}

func (s *Server) handleDrive(t *Tenant, w http.ResponseWriter, r *http.Request) {
	var req DriveRequest
	if !readJSON(w, r, "drive", &req) {
		return
	}
	if req.Requests <= 0 {
		req.Requests = 1
	}
	if req.Requests > maxDriveBatch {
		http.Error(w, fmt.Sprintf("drive batch too large (max %d)", maxDriveBatch), http.StatusBadRequest)
		return
	}
	res, err := t.DriveTraced(req.Requests, req.Collect, spanContext(r))
	if err != nil {
		writeError(w, err)
		return
	}
	if res.Traceparent != "" {
		// Override the middleware's echo with the trace this drive created.
		w.Header().Set(trace.Header, res.Traceparent)
	}
	writeJSON(w, http.StatusOK, &res)
}

// handleViolations streams the tenant's violation frames as SSE. The
// stream ends when the client disconnects or the tenant is deleted (the
// hub closes every subscriber channel). Slow clients lose frames rather
// than stall the tenant; losses count on the tenant's dropped-frames
// metric and in TenantStats.StreamDropped.
func (s *Server) handleViolations(t *Tenant, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported (response writer is not an http.Flusher)",
			http.StatusInternalServerError)
		return
	}
	ch, cancel, ok := t.SubscribeViolations(256)
	if !ok {
		writeError(w, fmt.Errorf("%w: %s", ErrTenantNotFound, t.ID()))
		return
	}
	defer cancel()
	sseHeaders(w)
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

// handleEvents streams the tenant's GC events as SSE. ?replay=N resends the
// last N retained events first. The tracer's live hub has no close signal,
// so the loop also watches tenant deletion to end the stream.
func (s *Server) handleEvents(t *Tenant, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported (response writer is not an http.Flusher)",
			http.StatusInternalServerError)
		return
	}
	replay := 0
	if v := r.URL.Query().Get("replay"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &replay); err != nil || replay < 0 {
			http.Error(w, "bad replay parameter", http.StatusBadRequest)
			return
		}
	}
	ch, cancel := t.SubscribeEvents(64)
	defer cancel()
	sseHeaders(w)
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
		case <-t.done:
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

func sseHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer SSE
	w.WriteHeader(http.StatusOK)
}

// codec is a reusable buffer with the indenting encoder that writes into
// it, and the limiting reader that fills it from a request body. Handlers
// take one from codecs for a body or a reply and put it back when done.
type codec struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	body io.LimitedReader
}

// maxPooledCodec is the largest buffer put back into codecs: one large
// document must not pin its memory for the life of the process.
const maxPooledCodec = 1 << 16

var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.enc = json.NewEncoder(&c.buf)
	c.enc.SetIndent("", "  ")
	return c
}}

func getCodec() *codec {
	c := codecs.Get().(*codec)
	c.buf.Reset()
	return c
}

func putCodec(c *codec) {
	if c.buf.Cap() <= maxPooledCodec {
		codecs.Put(c)
	}
}

// writeJSON answers code with v as indented JSON. v is encoded before the
// status is written, so a value that fails to encode answers 500 instead of
// an empty success.
func writeJSON(w http.ResponseWriter, code int, v any) {
	c := getCodec()
	defer putCodec(c)
	if err := c.enc.Encode(v); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(c.buf.Bytes())
}

// readJSON decodes r's body, at most maxJSONBody bytes, into v. A longer
// body answers 413 and one that does not decode 400, each naming what the
// body was for; readJSON reports whether v was filled.
func readJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	c := getCodec()
	defer putCodec(c)
	// One byte past the limit tells a body over it from one at it.
	c.body = io.LimitedReader{R: r.Body, N: maxJSONBody + 1}
	_, err := c.buf.ReadFrom(&c.body)
	c.body.R = nil
	if err != nil {
		http.Error(w, "bad "+what+" body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if c.buf.Len() > maxJSONBody {
		http.Error(w, fmt.Sprintf("%s body too large (max %d bytes)", what, maxJSONBody), http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(c.buf.Bytes(), v); err != nil {
		http.Error(w, "bad "+what+" body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeError maps service errors onto HTTP status codes.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrTenantNotFound), errors.Is(err, errTenantGone),
		errors.Is(err, ErrNoSLO), errors.Is(err, ErrNoTracing), errors.Is(err, ErrNoTrace):
		code = http.StatusNotFound
	case errors.Is(err, ErrTenantExists), errors.Is(err, ErrNoProgram):
		code = http.StatusConflict
	case errors.Is(err, ErrBadProgram), errors.Is(err, ErrBadTenantID),
		errors.Is(err, ErrBadSLO):
		code = http.StatusBadRequest
	case errors.Is(err, ErrServerFull):
		code = http.StatusServiceUnavailable
	default:
		// Guest faults (OOM, halt, VM error) are the guest's problem, not
		// the server's: report them as a client-visible 422 with the fault.
		code = http.StatusUnprocessableEntity
	}
	http.Error(w, err.Error(), code)
}
