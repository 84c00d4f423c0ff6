// Command mjload is the latency lab's load driver: it fires requests at an
// in-process gcassert runtime on a fixed open-loop schedule and reports the
// latency distribution with per-request GC-pause attribution.
//
// A request is either one run of an MJ program's Main.main (positional
// program.mj argument) or one iteration of a registered benchmark workload
// (-workload name, see internal/bench/workloads). Arrivals follow the target
// rate unconditionally — request i arrives at start + i/RPS whether or not
// the previous request has finished — so a GC pause that stalls the service
// loop shows up as queueing delay on every request that arrived behind it,
// the tail the paper's overhead tables cannot see and a closed-loop driver
// would silently absorb (coordinated omission).
//
// Usage:
//
//	mjload [-rps R] [-n N] [-heap MiB] [-slowest K] [-json] program.mj
//	mjload -workload _209_db [flags]
//	mjload -server URL [-tenants N] [-prefix NAME] [-keep] [flags] program.mj
//
// With -server, mjload is the client of a running gcassertd instead of an
// in-process lab: it provisions -tenants tenants on the service, submits
// the program to each, and drives every tenant as its own concurrent
// open-loop session at -rps (aggregate arrival rate = tenants × rps). The
// report shows aggregate and per-tenant latency tails plus the violation
// rate per million requests; -keep leaves the tenants (and their /metrics
// series) on the server for inspection afterwards. -slo attaches an SLO
// spec (JSON, see internal/slo.Spec) to every provisioned tenant and adds
// each tenant's post-run compliance judgment — budget remaining, worst
// burn rate, alert state — to the report.
//
// The report decomposes each latency component and blames GC stop-the-world
// time per trigger reason and per assertion kind (via the runtime's cost
// attribution):
//
//	requests: 400 @ 500 rps target, 498.7 rps achieved
//	latency:  p50 180µs     p99 7.48ms    p999 14.1ms    max 14.1ms
//	...
//	GC:       12 pauses, 18.2ms stop-the-world inside the run; ...
//	  by trigger: alloc-failure    11.2ms over 9 pause(s)
//	  by kind:    assert-ownedby    8.9ms
//	slowest requests:
//	  #312   14.1ms latency (13.9ms service + 150µs queued), GC overlap 11.2ms service + ...
//	          gc 7 (alloc-failure): 11.2ms pause, 11.2ms in-service, 0s queued, dominated by assert-ownedby (79%)
//
// Exit status: 0 on success, 1 when an input is missing or the guest program
// fails, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gcassert"
	"gcassert/internal/bench/workloads"
	"gcassert/internal/heap"
	"gcassert/internal/loadlab"
	"gcassert/internal/minivm"
	"gcassert/internal/slo"
	"gcassert/internal/stats"
	"gcassert/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: 0 on success, 1 when the invocation
// was fine but an input could not be read or the guest failed, 2 on usage
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mjload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rps := fs.Float64("rps", 200, "target arrival rate, requests per second (open loop)")
	n := fs.Int("n", 1000, "number of requests to fire")
	heapMB := fs.Int("heap", 0, "managed heap size in MiB (0 = 16 for programs, the workload's own size with -workload)")
	slowest := fs.Int("slowest", 3, "slowest requests to decompose pause-by-pause (0 = none)")
	workload := fs.String("workload", "", "drive a bench workload iteration instead of an MJ program")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	server := fs.String("server", "", "drive a remote gcassertd at this base URL instead of an in-process runtime")
	tenants := fs.Int("tenants", 8, "concurrent tenant sessions to provision and drive (-server mode)")
	prefix := fs.String("prefix", "load", "tenant name prefix (-server mode)")
	keep := fs.Bool("keep", false, "leave the provisioned tenants on the server after the run (-server mode)")
	sloFile := fs.String("slo", "", "SLO spec JSON to attach to every provisioned tenant; the report adds per-tenant compliance (-server mode)")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		version.Print(stdout, "mjload")
		return 0
	}

	usage := func(msg string) int {
		fmt.Fprintln(stderr, "mjload: usage: "+msg)
		return 2
	}
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, "mjload:", err)
		return 1
	}

	if *heapMB < 0 || *heapMB > heap.MaxHeapBytes>>20 {
		return usage(fmt.Sprintf("-heap %d: a managed heap holds at most %d MiB", *heapMB, heap.MaxHeapBytes>>20))
	}
	if *server != "" {
		if *workload != "" {
			return usage("-server drives MJ programs only (no -workload)")
		}
		if fs.NArg() != 1 {
			return usage("mjload -server URL [flags] program.mj")
		}
		if *rps <= 0 || *n <= 0 || *tenants <= 0 {
			return usage("-rps, -n and -tenants must be positive")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return dataErr(err)
		}
		var sloSpec *slo.Spec
		if *sloFile != "" {
			raw, err := os.ReadFile(*sloFile)
			if err != nil {
				return dataErr(err)
			}
			var spec slo.Spec
			if err := json.Unmarshal(raw, &spec); err != nil {
				return dataErr(fmt.Errorf("%s: %w", *sloFile, err))
			}
			if err := spec.Validate(); err != nil {
				return dataErr(fmt.Errorf("%s: %w", *sloFile, err))
			}
			sloSpec = &spec
		}
		heapMiB := *heapMB
		if heapMiB == 0 {
			heapMiB = 16
		}
		return runServer(serverRun{
			url:     strings.TrimRight(*server, "/"),
			tenants: *tenants,
			prefix:  *prefix,
			keep:    *keep,
			rps:     *rps,
			n:       *n,
			heapMiB: heapMiB,
			jsonOut: *jsonOut,
			src:     string(src),
			slo:     sloSpec,
		}, stdout, stderr)
	}
	if *sloFile != "" {
		return usage("-slo requires -server")
	}
	if (*workload == "") == (fs.NArg() != 1) {
		return usage("mjload [flags] program.mj  |  mjload -workload name [flags]")
	}
	if *rps <= 0 || *n <= 0 {
		return usage("-rps and -n must be positive")
	}

	// Build the runtime and the request op. Telemetry, which carries cost
	// attribution, is always on: it is what the lab exists to observe, and
	// its overhead is part of the configuration being measured.
	heap := *heapMB << 20
	var vm *gcassert.Runtime
	var op func(seq int)
	var guestErr error
	if *workload != "" {
		w, err := workloads.ByName(*workload)
		if err != nil {
			return dataErr(err)
		}
		if heap == 0 {
			heap = w.Heap
		}
		vm = newRuntime(heap, stderr)
		op = w.New(vm, w.HasAsserts)
	} else {
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return dataErr(err)
		}
		unit, err := minivm.Compile(string(src))
		if err != nil {
			return dataErr(err)
		}
		if heap == 0 {
			heap = 16 << 20
		}
		vm = newRuntime(heap, stderr)
		// Guest prints go nowhere: at hundreds of requests per second they
		// would drown the report and distort the service time being measured.
		im, err := minivm.Load(vm, unit, io.Discard)
		if err != nil {
			return dataErr(err)
		}
		op = func(int) {
			if err := im.Run(); err != nil && guestErr == nil {
				guestErr = err
			}
		}
	}

	// Lossless event tap: the telemetry ring is bounded, a long run is not.
	log := loadlab.NewEventLog(vm.Telemetry())
	rep, err := loadlab.Run(loadlab.Options{RPS: *rps, Requests: *n, Capture: true}, op)
	vm.Telemetry().OnRecord(nil)
	if err != nil {
		return dataErr(err)
	}
	if guestErr != nil {
		return dataErr(fmt.Errorf("guest program: %w", guestErr))
	}
	at := loadlab.Attribute(rep, log.Events(), *slowest)

	if *jsonOut {
		if err := json.NewEncoder(stdout).Encode(summarize(rep, at)); err != nil {
			return dataErr(err)
		}
		return 0
	}
	loadlab.WriteReport(stdout, rep, at)
	return 0
}

func newRuntime(heapBytes int, stderr io.Writer) *gcassert.Runtime {
	return gcassert.New(gcassert.Options{
		HeapBytes:      heapBytes,
		Infrastructure: true,
		Reporter:       gcassert.NewWriterReporter(stderr),
		Telemetry:      true,
	})
}

// tailJSON is one histogram's SLO quantiles in nanoseconds.
type tailJSON struct {
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`
}

func tails(h *stats.LogHist) tailJSON {
	p50, p99, p999, max := h.Tail()
	return tailJSON{
		P50Ns: p50.Nanoseconds(), P99Ns: p99.Nanoseconds(),
		P999Ns: p999.Nanoseconds(), MaxNs: max.Nanoseconds(),
	}
}

// summaryJSON is the -json report: pacing, per-component quantiles, and the
// full attribution.
type summaryJSON struct {
	TargetRPS   float64              `json:"target_rps"`
	AchievedRPS float64              `json:"achieved_rps"`
	Requests    int                  `json:"requests"`
	Latency     tailJSON             `json:"latency"`
	Service     tailJSON             `json:"service"`
	Queue       tailJSON             `json:"queue"`
	Attribution *loadlab.Attribution `json:"attribution"`
}

func summarize(rep *loadlab.Report, at *loadlab.Attribution) summaryJSON {
	return summaryJSON{
		TargetRPS:   rep.RPS,
		AchievedRPS: rep.AchievedRPS(),
		Requests:    rep.Requests,
		Latency:     tails(&rep.Latency),
		Service:     tails(&rep.Service),
		Queue:       tails(&rep.Queue),
		Attribution: at,
	}
}
