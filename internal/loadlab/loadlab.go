// Package loadlab is the latency lab: an open-loop, target-RPS load driver
// for in-process gcassert workloads, with request-level SLO reporting and
// GC-pause attribution.
//
// # Open loop
//
// The driver schedules request *arrivals* on a fixed clock — arrival i is
// due at start + i/RPS — regardless of whether earlier requests have
// finished. Requests execute serially (one replica = one service loop, the
// honest model for a stop-the-world runtime); when the service falls behind
// the schedule, later arrivals queue and their latency includes the wait.
// This is the ReqBench-style open-loop discipline: unlike a closed loop,
// which politely stops sending while the runtime is paused (coordinated
// omission), the open loop keeps the clock running, so one long GC pause
// shows up not as one slow request but as a queue of them — exactly what a
// production SLO sees.
//
// Per-request latency is recorded three ways, all on log-bucketed
// histograms (internal/stats.LogHist): end-to-end latency (completion −
// scheduled arrival), service time (completion − execution start), and
// queue wait (execution start − scheduled arrival). Raw per-request records
// are retained for attribution.
//
// # Attribution
//
// Attribute intersects each request's lifetime with the runtime's GC pause
// windows (from the telemetry event stream) and decomposes slow requests
// into run time vs stop-the-world overlap, blamed per trigger reason and —
// in Infrastructure mode — per assertion kind. The invariant behind
// it: with a serial service loop, every pause happens inside exactly one
// request's service window, so summed attributed pause time reconciles
// exactly with the telemetry pause histogram (a property test pins this).
package loadlab

import (
	"errors"
	"time"

	"gcassert/internal/stats"
)

// Options configures one load run.
type Options struct {
	// RPS is the target arrival rate, requests per second (required > 0).
	RPS float64
	// Requests is the number of arrivals to schedule (required > 0).
	Requests int
	// Capture records per-request latencies (records + histograms). With
	// Capture off the driver only paces and counts — the request path then
	// performs zero Go allocations (BenchmarkLoadlabOff pins this), so a
	// throughput-only run measures the workload, not the lab.
	Capture bool
}

// Record is one request's lifetime, in Unix nanoseconds: the scheduled
// open-loop arrival, the service start (= arrival when the service was
// idle, later when it was draining a queue), and the completion.
type Record struct {
	Seq           int   `json:"seq"`
	ArrivalUnixNs int64 `json:"arrival_unix_ns"`
	StartUnixNs   int64 `json:"start_unix_ns"`
	EndUnixNs     int64 `json:"end_unix_ns"`
}

// LatencyNs is the end-to-end latency: completion − scheduled arrival.
func (r Record) LatencyNs() int64 { return r.EndUnixNs - r.ArrivalUnixNs }

// ServiceNs is the execution time: completion − service start.
func (r Record) ServiceNs() int64 { return r.EndUnixNs - r.StartUnixNs }

// QueueNs is the open-loop queue wait: service start − scheduled arrival.
func (r Record) QueueNs() int64 { return r.StartUnixNs - r.ArrivalUnixNs }

// Report is the outcome of one load run.
type Report struct {
	// RPS and Requests echo the options.
	RPS      float64
	Requests int
	// StartUnixNs anchors the arrival schedule; EndUnixNs is taken after
	// the last completion. Attribution clips pause windows to this range.
	StartUnixNs int64
	EndUnixNs   int64
	// Records holds every request's lifetime (nil with Capture off).
	Records []Record
	// Latency, Service and Queue are the component histograms (empty with
	// Capture off).
	Latency stats.LogHist
	Service stats.LogHist
	Queue   stats.LogHist
}

// AchievedRPS is the completion rate actually sustained over the run.
func (rep *Report) AchievedRPS() float64 {
	dur := float64(rep.EndUnixNs-rep.StartUnixNs) / float64(time.Second)
	if dur <= 0 {
		return 0
	}
	return float64(rep.Requests) / dur
}

// Run drives op through one open-loop load run: op(i) is invoked once per
// scheduled arrival, in order, on the calling goroutine. op typically
// executes one guest MJ method invocation or one workload operation; it may
// trigger any number of collections. Run returns when every request has
// completed.
func Run(opts Options, op func(seq int)) (*Report, error) {
	if opts.RPS <= 0 {
		return nil, errors.New("loadlab: Options.RPS must be positive")
	}
	if opts.Requests <= 0 {
		return nil, errors.New("loadlab: Options.Requests must be positive")
	}
	intervalNs := float64(time.Second) / opts.RPS
	rep := &Report{RPS: opts.RPS, Requests: opts.Requests}
	if opts.Capture {
		rep.Records = make([]Record, opts.Requests)
	}
	rep.StartUnixNs = time.Now().UnixNano()
	for i := 0; i < opts.Requests; i++ {
		// The schedule is computed from the run start, never from the
		// previous request, so service delays cannot stretch the arrival
		// process (that would be the closed-loop bug this lab exists to
		// avoid).
		arrival := rep.StartUnixNs + int64(float64(i)*intervalNs)
		now := time.Now().UnixNano()
		for now < arrival {
			time.Sleep(time.Duration(arrival - now))
			now = time.Now().UnixNano()
		}
		op(i)
		end := time.Now().UnixNano()
		if opts.Capture {
			rep.Records[i] = Record{Seq: i, ArrivalUnixNs: arrival, StartUnixNs: now, EndUnixNs: end}
			rep.Latency.Observe(time.Duration(end - arrival))
			rep.Service.Observe(time.Duration(end - now))
			rep.Queue.Observe(time.Duration(now - arrival))
		}
	}
	rep.EndUnixNs = time.Now().UnixNano()
	return rep, nil
}
