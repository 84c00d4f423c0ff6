package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync/atomic"
	"time"

	"gcassert"
	"gcassert/internal/assertd"
	"gcassert/internal/minivm"
	"gcassert/internal/slo"
)

// The service workloads: assertd.NewServer(...).Handler() on a 127.0.0.1
// listener inside the benchmark process, driven by one closed-loop client
// on one keep-alive connection — a drive caller waits for its reply, so a
// closed loop is the honest model. One op is POST /tenants/{id}/drive
// {"requests":1}.
//
// Each round drives the same number of requests at two tenants running the
// same guest: "base" with every optional layer off, then "primary" with the
// workload's own options. On svc-tiny the two are configured alike, so its
// *_ratio_vs_base metrics are an A/A figure that must stay at 1.
type svcSpec struct {
	name    string
	guest   func(seed uint64, plant bool) string
	primary assertd.TenantOptions
	base    assertd.TenantOptions
	reqs    int // requests per half-round
	warmup  int // requests per side of each of the two warm-up passes inside set-up
	// planted is what the planted-bug variant of the guest must report.
	planted map[string]uint64
}

var svcTenants = [2]string{sideBase: "base", sidePrimary: "primary"}

func svcGuestSpec(short bool) svcSpec {
	s := svcSpec{
		name:  "svc-guest",
		guest: guestChurn,
		base:  assertd.TenantOptions{HeapMiB: guestHeapMiB},
		primary: assertd.TenantOptions{
			HeapMiB:       guestHeapMiB,
			Introspection: true,
			Trace:         &assertd.TraceOptions{Probability: 0.05},
			SLO: &slo.Spec{Objectives: []slo.Objective{
				{Kind: slo.KindAvailability, TargetPct: 99.9},
				{Kind: slo.KindViolationRate, MaxPerMillion: 1000},
				{Kind: slo.KindPauseP99, MaxMs: 50},
			}},
		},
		reqs: 200, warmup: 90,
		planted: map[string]uint64{"assert-dead": 1, "assert-unshared": 1},
	}
	if short {
		s.reqs, s.warmup = 20, 10
	}
	return s
}

func svcTinySpec(short bool) svcSpec {
	s := svcSpec{
		name:    "svc-tiny",
		guest:   guestTiny,
		base:    assertd.TenantOptions{HeapMiB: 1},
		primary: assertd.TenantOptions{HeapMiB: 1},
		reqs:    10500, warmup: 3500,
		planted: map[string]uint64{"assert-dead": 1},
	}
	if short {
		s.reqs, s.warmup = 40, 20
	}
	return s
}

func setupSvcGuest(seed uint64, short bool) (instance, error) {
	return setupSvc(svcGuestSpec(short), seed)
}

func setupSvcTiny(seed uint64, short bool) (instance, error) {
	return setupSvc(svcTinySpec(short), seed)
}

// svcSide is what the benchmark keeps per tenant.
type svcSide struct {
	tenant   *assertd.Tenant
	driveURL string
	requests uint64 // requests driven so far: the model of TenantStats.Requests
	lastSeq  uint64 // last GC event folded into cum
	anyEvent bool
	cum      counters
	prevGCNs int64
	prevGCs  uint64
}

// Per-request series the service workloads keep in their sideRec.
const (
	serElapsed = "elapsed_ns" // DriveResult.ElapsedNs
	serGuest   = "guest_ns"   // ElapsedNs minus the collector time inside it
	serGC      = "gc_ns"      // collector time inside the request
	serKept    = "trace_kept" // 1 when the reply said its trace was kept
	serReq     = "req_bytes"
	serResp    = "resp_bytes"
	serNet     = "net_ns"   // traced rounds: client round trip minus handler span
	serCodec   = "codec_ns" // traced rounds: handler span minus ElapsedNs
)

type svcInstance struct {
	spec   svcSpec
	seed   uint64
	src    string
	srv    *assertd.Server
	http   *http.Server
	served chan error
	client *http.Client
	base   string
	side   [2]*svcSide
	body   []byte
	buf    bytes.Buffer

	// tr is the tracer the handler middleware records into; nil outside
	// traced halves. handlerNs is the middleware's last measurement.
	tr        atomic.Pointer[tracer]
	handlerNs atomic.Int64

	chk checker
}

func setupSvc(spec svcSpec, seed uint64) (instance, error) {
	in := &svcInstance{spec: spec, seed: seed, src: spec.guest(seed, false), served: make(chan error, 1),
		chk: checker{name: spec.name}}
	in.srv = assertd.NewServer(assertd.Config{InstanceID: "bench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.http = &http.Server{Handler: in.middleware(in.srv.Handler())}
	go func() { in.served <- in.http.Serve(ln) }()
	in.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	in.body, _ = json.Marshal(assertd.DriveRequest{Requests: 1})

	if err := in.provision(); err != nil {
		in.close()
		return nil, err
	}
	for w := 0; w < warmupPasses; w++ {
		for side := range in.side {
			var rec sideRec
			in.run(side, spec.warmup, &rec, nil)
			if rec.failed > 0 || in.chk.failed > 0 {
				in.close()
				return nil, fmt.Errorf("%s: warm-up failed (%d requests, %d checks)", spec.name, rec.failed, in.chk.failed)
			}
		}
	}
	return in, nil
}

// provision creates both tenants over HTTP and submits the guest.
func (in *svcInstance) provision() error {
	for side, id := range svcTenants {
		opts := in.spec.base
		if side == sidePrimary {
			opts = in.spec.primary
		}
		create, _ := json.Marshal(assertd.CreateRequest{ID: id, Options: opts})
		if _, err := in.post("/tenants", create, http.StatusCreated); err != nil {
			return err
		}
		if _, err := in.post("/tenants/"+id+"/program", []byte(in.src), http.StatusOK); err != nil {
			return err
		}
		t, ok := in.srv.Tenant(id)
		if !ok {
			return fmt.Errorf("tenant %s missing after create", id)
		}
		in.side[side] = &svcSide{tenant: t, driveURL: in.base + "/tenants/" + id + "/drive"}
	}
	return nil
}

// post sends one request and returns the reply body, which stays valid
// until the next call.
func (in *svcInstance) post(path string, body []byte, want int) ([]byte, error) {
	resp, err := in.client.Post(in.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	in.buf.Reset()
	_, err = in.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(in.buf.Bytes()))
	}
	return in.buf.Bytes(), nil
}

// middleware wraps Server.Handler() with the handler span. Outside traced
// halves it costs one atomic load.
func (in *svcInstance) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := in.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		id := tr.begin(spHandler)
		next.ServeHTTP(w, r)
		tr.end(id)
		in.handlerNs.Store(time.Since(t0).Nanoseconds())
	})
}

func (in *svcInstance) half(side, round int, rec *sideRec, tr *tracer) {
	in.run(side, in.spec.reqs, rec, tr)
}

// run drives n requests at one tenant and then checks its stats.
func (in *svcInstance) run(side, n int, rec *sideRec, tr *tracer) {
	s := in.side[side]
	in.tr.Store(tr)
	in.drain(s, nil)
	for i := 0; i < n; i++ {
		id := tr.startOp()
		rt := tr.begin(spRoundTrip)
		t0 := time.Now()
		resp, err := in.client.Post(s.driveURL, "application/json", bytes.NewReader(in.body))
		if err == nil {
			in.buf.Reset()
			_, err = in.buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		ns := time.Since(t0).Nanoseconds()
		tr.end(rt)
		tr.end(id)

		var res assertd.DriveResult
		ok := err == nil && resp.StatusCode == http.StatusOK &&
			json.Unmarshal(in.buf.Bytes(), &res) == nil &&
			res.Requests == 1 && res.Failures == 0 && res.Violations == 0
		rec.op(ns, ok, tr != nil)
		s.requests++

		// The tenant's cached stats, refreshed by its service loop before it
		// replied, say how much of the request the collector took.
		st := s.tenant.Stats()
		gcNs := st.GCTotalNs - s.prevGCNs
		if st.Collections > s.prevGCs {
			rec.gcHitOps++
		}
		s.prevGCNs, s.prevGCs = st.GCTotalNs, st.Collections
		if ok {
			kept := 0.0
			if res.TraceSampled != "" {
				kept = 1
			}
			rec.sample(serElapsed, float64(res.ElapsedNs))
			rec.sample(serGuest, float64(res.ElapsedNs-gcNs))
			rec.sample(serGC, float64(gcNs))
			rec.sample(serKept, kept)
			rec.sample(serReq, float64(len(in.body)))
			rec.sample(serResp, float64(in.buf.Len()))
			if tr != nil {
				h := in.handlerNs.Load()
				rec.sample(serNet, float64(ns-h))
				rec.sample(serCodec, float64(h-res.ElapsedNs))
			}
		}
		if i%256 == 255 {
			in.drain(s, rec)
		}
	}
	in.tr.Store(nil)
	in.drain(s, rec)
	in.oracle(side)
	st := s.tenant.Stats()
	s.prevGCNs, s.prevGCs = st.GCTotalNs, st.Collections
}

// drain folds the tenant's GC events since the last call into the side's
// cumulative counters: phase times, objects marked and freed, roots, and the
// mutator's allocation totals (each event carries them cumulatively).
func (in *svcInstance) drain(s *svcSide, rec *sideRec) {
	for _, ev := range s.tenant.Events() {
		if s.anyEvent && ev.Seq <= s.lastSeq {
			continue
		}
		s.anyEvent, s.lastSeq = true, ev.Seq
		c := &s.cum
		c.GCs++
		c.GCNs += ev.TotalNs
		c.OwnNs += ev.PhaseNs("ownership")
		c.MarkNs += ev.PhaseNs("mark")
		c.SweepNs += ev.PhaseNs("sweep")
		c.Marked += uint64(ev.ObjectsMarked)
		c.Freed += uint64(ev.ObjectsFreed)
		c.Roots += uint64(ev.RootsScanned)
		var objs, words uint64
		for _, th := range ev.Threads {
			objs += th.Objects
			words += th.Words
		}
		c.AllocObjs, c.AllocWords = objs, words
		if rec != nil {
			rec.pauses = append(rec.pauses, float64(ev.TotalNs))
		}
	}
}

// oracle forces a collection on the tenant and checks its stats document
// against what the benchmark knows: every request it sent was run, none
// failed, no assertion fired, and — the guest keeps nothing between
// requests — nothing is live.
func (in *svcInstance) oracle(side int) {
	s := in.side[side]
	body, err := in.post("/tenants/"+svcTenants[side]+"/collect", nil, http.StatusOK)
	var st assertd.TenantStats
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	switch {
	case err != nil:
	case st.Requests != s.requests:
		err = fmt.Errorf("requests %d, sent %d", st.Requests, s.requests)
	case st.Failures != 0 || st.Violations != 0:
		err = fmt.Errorf("%d failures and %d violations, want none", st.Failures, st.Violations)
	case st.HeapLiveObjects != 0:
		err = fmt.Errorf("%d objects live after a collection between requests, want 0", st.HeapLiveObjects)
	}
	in.chk.check(err == nil, "tenant %s: %v", svcTenants[side], err)
}

func (in *svcInstance) counters(side int) counters {
	c := in.side[side].cum
	c.LiveWords = in.side[side].tenant.Stats().HeapLiveWords
	return c
}

// layers adds the service-path metrics. The interpreter's own figures come
// from compiling and running the same guest directly on a runtime of the
// tenant's heap size, since inside the service the benchmark cannot put a
// span round Image.Run.
func (in *svcInstance) layers(out map[string]float64, rec [2]*sideRec, tr *tracer) {
	p, b := rec[sidePrimary].series, rec[sideBase].series
	out["assertd.req_bytes"] = median(p[serReq])
	out["assertd.resp_bytes"] = median(p[serResp])
	out["assertd.guest_us"] = median(p[serGuest]) / 1e3
	out["assertd.gc_us_per_req"] = mean(p[serGC]) / 1e3
	out["assertd.record_us_per_req"] = (median(p[serElapsed]) - median(b[serElapsed])) / 1e3
	out["trace.kept_pct"] = mean(p[serKept]) * 100
	out["assertd.net_us"] = median(p[serNet]) / 1e3
	out["assertd.codec_handoff_us"] = median(p[serCodec]) / 1e3
	if tr == nil {
		return
	}
	saveGuest(in.spec.name, in.seed, in.src)
	id := tr.begin(spCompile)
	unit, err := minivm.Compile(in.src)
	var im *minivm.Image
	if err == nil {
		vm := gcassert.New(gcassert.Options{HeapBytes: in.spec.primary.HeapMiB << 20, Infrastructure: true})
		im, err = minivm.Load(vm, unit, io.Discard)
	}
	tr.end(id)
	// The tenants compiled and ran this very source, so neither step can
	// fail here; if one does, the two metrics stay 0.
	const directRuns = 200
	for i := 0; err == nil && i < directRuns; i++ {
		id := tr.begin(spRun)
		err = im.Run()
		tr.end(id)
	}
	if err != nil {
		fmt.Printf("%s: direct run of the guest: %v\n", in.spec.name, err)
		return
	}
	out["minivm.compile_us"] = median(tr.durations(spCompile)) / 1e3
	out["minivm.run_us_per_req"] = median(tr.durations(spRun)) / 1e3
}

// epilogue submits the planted-bug variant of the guest to the primary
// tenant and drives it once: the reply and the tenant's stats must show
// exactly the planted violations, by kind.
func (in *svcInstance) epilogue() (checks, failed int, violations uint64) {
	var want uint64
	for _, n := range in.spec.planted {
		want += n
	}
	var res assertd.DriveResult
	_, err := in.post("/tenants/primary/program", []byte(in.spec.guest(in.seed, true)), http.StatusOK)
	if err == nil {
		var body []byte
		if body, err = in.post("/tenants/primary/drive", in.body, http.StatusOK); err == nil {
			err = json.Unmarshal(body, &res)
		}
	}
	kinds := in.side[sidePrimary].tenant.Stats().ViolationsByKind
	switch {
	case err != nil:
	case res.Violations != want || res.Failures != 0:
		err = fmt.Errorf("%d violations and %d failures, want %d and 0", res.Violations, res.Failures, want)
	case !reflect.DeepEqual(kinds, in.spec.planted):
		err = fmt.Errorf("kinds %v, want %v", kinds, in.spec.planted)
	}
	in.chk.check(err == nil, "planted bug: %v", err)
	return in.chk.checks, in.chk.failed, res.Violations
}

// close stops the HTTP server and every tenant, and waits for the serving
// goroutine to end.
func (in *svcInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in.client.CloseIdleConnections()
	if err := in.http.Shutdown(ctx); err != nil {
		in.http.Close()
	}
	if err := <-in.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("%s: server: %v\n", in.spec.name, err)
	}
	in.srv.Close()
}
