// Command gctrace runs a registered workload with telemetry enabled and
// exports the structured GC trace.
//
// Usage:
//
//	gctrace [-workload name] [-mode base|infra|assert] [-iters N]
//	        [-format gctrace|jsonl|chrome|metrics] [-o file]
//	        [-heap bytes] [-ring N] [-http addr] [-list]
//	gctrace -trace FILE|URL [-format tree|chrome] [-o file]
//
//	-workload pseudojbb   workload to run (see -list)
//	-mode infra           collector configuration (assert implies infra)
//	-iters 2              workload iterations
//	-format gctrace       export format:
//	                        gctrace  one line per GC, like GODEBUG=gctrace=1
//	                        jsonl    one JSON event per line
//	                        chrome   trace_event JSON — open the file in
//	                                 chrome://tracing or ui.perfetto.dev
//	                        metrics  Prometheus text exposition
//	-o file               write the export there (default stdout)
//	-http addr            also serve /metrics and /debug/gcassert/* on addr
//	                      (kept alive after the run until interrupted)
//
// The second form is the distributed-trace drill-down: -trace loads a
// stored request-to-GC trace document — a file, a gcassertd URL
// (/tenants/{id}/traces/{traceID}), or a gcfleet bundle URL
// (/fleet/bundle?hash=..., the envelope is unwrapped) — and renders the
// span tree with per-request GC overlap, trigger reasons, per-kind
// assertion cost and violation provenance (-format tree, the default), or
// re-exports it as chrome trace_event JSON (-format chrome).
//
// After the export, a summary on stderr cross-checks the event stream
// against the collector's cumulative stats: per-phase sums over the trace
// must match GCStats totals (they are the same measurements), and pause
// percentiles come from the telemetry histogram.
//
// Exit status: 0 on success, 1 when the workload or an output file is
// unavailable, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gcassert"
	"gcassert/internal/bench"
	"gcassert/internal/bench/workloads"
	"gcassert/internal/bench/wutil"
	"gcassert/internal/trace"
	"gcassert/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: flags from args, export to stdout
// (or -o), diagnostics to stderr, exit code returned. With -http the
// function blocks after the export to keep the telemetry server up.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "pseudojbb", "workload to run")
	list := fs.Bool("list", false, "list workloads and exit")
	mode := fs.String("mode", "infra", "base, infra, or assert")
	iters := fs.Int("iters", 2, "workload iterations")
	format := fs.String("format", "gctrace", "gctrace, jsonl, chrome, or metrics")
	out := fs.String("o", "", "output file (default stdout)")
	heapBytes := fs.Int("heap", 0, "override the workload's heap size (bytes)")
	ring := fs.Int("ring", 1<<16, "GC event ring capacity")
	httpAddr := fs.String("http", "", "serve telemetry endpoints on this address")
	traceSrc := fs.String("trace", "", "drill into a stored trace document (file or URL) instead of running a workload")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		version.Print(stdout, "gctrace")
		return 0
	}

	usage := func(msg string) int {
		fmt.Fprintln(stderr, "gctrace: usage: "+msg)
		return 2
	}
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, "gctrace:", err)
		return 1
	}

	if fs.NArg() != 0 {
		return usage("gctrace takes no positional arguments")
	}
	if *traceSrc != "" {
		return runTraceDrill(*traceSrc, *format, *out, stdout, stderr)
	}
	switch *format {
	case "gctrace", "jsonl", "chrome", "metrics":
	default:
		return usage(fmt.Sprintf("unknown format %q (want gctrace, jsonl, chrome or metrics)", *format))
	}
	switch *mode {
	case "base", "infra", "assert":
	default:
		return usage(fmt.Sprintf("unknown mode %q (want base, infra or assert)", *mode))
	}

	if *list {
		for _, w := range workloads.All() {
			asserts := ""
			if w.HasAsserts {
				asserts = " (has assertions)"
			}
			fmt.Fprintf(stdout, "%-12s heap=%d%s\n", w.Name, w.Heap, asserts)
		}
		return 0
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		return dataErr(err)
	}
	if *heapBytes > 0 {
		w.Heap = *heapBytes
	}
	var m bench.Mode
	switch *mode {
	case "base":
		m = bench.Base
	case "infra":
		m = bench.Infra
	case "assert":
		if !w.HasAsserts {
			return dataErr(fmt.Errorf("workload %s defines no assertions", w.Name))
		}
		m = bench.WithAssertions
	}

	vm := gcassert.New(gcassert.Options{
		HeapBytes:         w.Heap,
		Infrastructure:    m != bench.Base,
		Telemetry:         true,
		TelemetryRingSize: *ring,
	})
	tel := vm.Telemetry()

	if *httpAddr != "" {
		go func() {
			fmt.Fprintf(stderr, "serving telemetry on http://%s/metrics\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, vm.TelemetryHandler()); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	runIter := w.New(vm, m == bench.WithAssertions)
	start := time.Now()
	for i := 0; i < *iters; i++ {
		runIter(i)
	}
	elapsed := time.Since(start)

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return dataErr(err)
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "gctrace":
		err = tel.WriteGoTrace(dst)
	case "jsonl":
		err = tel.WriteJSONL(dst)
	case "chrome":
		err = tel.WriteChromeTrace(dst)
	case "metrics":
		err = tel.WriteMetrics(dst)
	}
	if err != nil {
		return dataErr(err)
	}

	wutil.WriteGCSummary(stderr, vm, elapsed)

	if *httpAddr != "" {
		fmt.Fprintln(stderr, "run complete; telemetry server still up (interrupt to exit)")
		select {}
	}
	return 0
}

// runTraceDrill renders one stored request-to-GC trace document: the
// span-tree drill-down (-format tree, also the default "gctrace") or a
// chrome trace_event re-export. src is a file path or an http(s) URL; a
// fleet envelope wrapping the document is unwrapped transparently.
func runTraceDrill(src, format, out string, stdout, stderr io.Writer) int {
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "gctrace: usage: "+msg)
		return 2
	}
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, "gctrace:", err)
		return 1
	}
	switch format {
	case "tree", "gctrace", "chrome":
	default:
		return usage(fmt.Sprintf("unknown trace format %q (want tree or chrome)", format))
	}

	var data []byte
	var err error
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, herr := http.Get(src)
		if herr != nil {
			return dataErr(herr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return dataErr(fmt.Errorf("%s: %s: %s", src, resp.Status, strings.TrimSpace(string(body))))
		}
		if data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20)); err != nil {
			return dataErr(err)
		}
	} else if data, err = os.ReadFile(src); err != nil {
		return dataErr(err)
	}

	var doc trace.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return dataErr(fmt.Errorf("%s: %v", src, err))
	}
	if doc.TraceID == "" {
		// Maybe a fleet envelope (or a stored record) wrapping the document.
		var env struct {
			Payload  json.RawMessage `json:"payload"`
			Envelope *struct {
				Payload json.RawMessage `json:"payload"`
			} `json:"envelope"`
		}
		if json.Unmarshal(data, &env) == nil {
			payload := env.Payload
			if payload == nil && env.Envelope != nil {
				payload = env.Envelope.Payload
			}
			if payload != nil {
				_ = json.Unmarshal(payload, &doc)
			}
		}
	}
	if doc.TraceID == "" || len(doc.Spans) == 0 {
		return dataErr(fmt.Errorf("%s: not a trace document (no trace_id/spans)", src))
	}

	dst := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return dataErr(err)
		}
		defer f.Close()
		dst = f
	}
	if format == "chrome" {
		err = trace.WriteChrome(dst, &doc)
	} else {
		err = trace.WriteTree(dst, &doc)
	}
	if err != nil {
		return dataErr(err)
	}
	return 0
}
