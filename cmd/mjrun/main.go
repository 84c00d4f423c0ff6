// Command mjrun compiles and runs an MJ program (see internal/minivm) on
// the gcassert managed runtime, printing assertion violations in the
// paper's Figure 1 format as the collector finds them.
//
// Usage:
//
//	mjrun [-heap MiB] [-stats] [-disasm]
//	      [-provenance] [-fr] [-fr-dump file] [-explain] [-top]
//	      [-serve addr] [-fleet url] [-instance id]
//	      program.mj
//
// With -fr the GC flight recorder is armed: the first assertion violation
// of each collection dumps a forensic bundle to the -fr-dump file, and
// SIGQUIT requests an on-demand dump at the next collection (the bundle
// needs a consistent heap, so the dump rides on the collector's
// stop-the-world pause). Inspect bundles with `gcfr`, or feed the heap
// profile inside to `go tool pprof`.
//
// -explain prints the trigger explainer for every collection (why the GC
// ran, heap occupancy, allocation rate, dominant allocating thread/site) to
// stderr. -top attaches an in-process gctop dashboard, redrawn on every
// collection. -serve mounts the telemetry HTTP surface (e.g. -serve :6060),
// so an external `gctop -url http://localhost:6060/debug/gcassert/live`
// can watch the run. All three enable telemetry, which carries cost
// attribution, and site provenance (the interpreter's per-pc site cache
// makes the sited allocations cheap).
//
// -fleet enables the fleet exporter: after every collection the census
// snapshot is sealed into a content-addressed envelope and shipped to the
// gcfleet collector at the given base URL (and, on an assertion violation,
// a flight bundle too when -fr is armed). -instance names this process in
// the fleet; empty generates a host-pid-random ID. -fleet implies heap
// introspection and site provenance, so the shipped census breaks down by
// (type, allocation site).
//
// Exit status: 0 on success, 1 when the program is missing, fails to
// compile, or fails at runtime, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"gcassert"
	"gcassert/internal/heap"
	"gcassert/internal/minivm"
	"gcassert/internal/topview"
	"gcassert/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: flags from args, guest output to
// stdout, diagnostics to stderr, exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mjrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	heapMB := fs.Int("heap", 16, "managed heap size in MiB")
	stats := fs.Bool("stats", false, "print GC and assertion statistics at exit")
	disasm := fs.Bool("disasm", false, "print the compiled bytecode and exit")
	provenance := fs.Bool("provenance", false, "record every guest allocation's site (method:line) for violation reports and profiles")
	fr := fs.Bool("fr", false, "arm the GC flight recorder (implies -provenance; dump with SIGQUIT or on violation)")
	frDump := fs.String("fr-dump", "gcassert-fr.json", "file the flight recorder dumps bundles to (latest dump wins)")
	explain := fs.Bool("explain", false, "print the trigger explainer for every collection")
	top := fs.Bool("top", false, "attach an in-process gctop dashboard (redrawn per collection)")
	serve := fs.String("serve", "", "listen address for the telemetry HTTP surface (e.g. :6060; feeds external gctop via /debug/gcassert/live)")
	fleetURL := fs.String("fleet", "", "gcfleet collector base URL; enables the fleet exporter (implies introspection + provenance)")
	instance := fs.String("instance", "", "instance ID stamped on exported artifacts (with -fleet; empty = host-pid-random)")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		version.Print(stdout, "mjrun")
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mjrun [-heap MiB] [-stats] [-disasm] [-provenance] [-fr] [-fr-dump file] [-explain] [-top] [-serve addr] [-fleet url] [-instance id] program.mj")
		return 2
	}
	if *heapMB < 0 || *heapMB > heap.MaxHeapBytes>>20 {
		fmt.Fprintf(stderr, "mjrun: -heap %d: a managed heap holds at most %d MiB\n", *heapMB, heap.MaxHeapBytes>>20)
		return 2
	}
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return dataErr(err)
	}

	unit, cerr := minivm.Compile(string(src))
	if cerr != nil {
		return dataErr(cerr)
	}
	if *disasm {
		fmt.Fprint(stdout, minivm.DisassembleUnit(unit))
		return 0
	}

	observing := *explain || *top || *serve != ""
	prov := 0
	if *provenance || *fr || observing || *fleetURL != "" {
		prov = 1
	}
	vm := gcassert.New(gcassert.Options{
		HeapBytes:        *heapMB << 20,
		Infrastructure:   true,
		Reporter:         gcassert.NewWriterReporter(stderr),
		ProvenanceSample: prov,
		FlightRecorder:   *fr,
		Telemetry:        observing,
		InstanceID:       *instance,
		FleetURL:         *fleetURL,
	})
	var drainLive func()
	if *explain || *top {
		drainLive = watchLive(vm, *explain, *top, stderr)
	}
	if *serve != "" {
		go func() {
			if err := http.ListenAndServe(*serve, vm.TelemetryHandler()); err != nil {
				fmt.Fprintln(stderr, "mjrun: telemetry server:", err)
			}
		}()
	}
	if *fr {
		rec := vm.Flight()
		rec.SetDumpSink(func() (io.WriteCloser, error) { return os.Create(*frDump) })
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				// Dumping needs a consistent heap; latch the request and let
				// the collector deliver at its next stop-the-world pause.
				rec.RequestDump()
				fmt.Fprintf(stderr, "mjrun: flight dump to %s requested (written at next GC)\n", *frDump)
			}
		}()
	}
	im, lerr := minivm.Load(vm, unit, stdout)
	if lerr != nil {
		return dataErr(lerr)
	}
	if err := im.Run(); err != nil {
		return dataErr(err)
	}
	vm.Collect()
	if drainLive != nil {
		drainLive()
	}
	// Flush the fleet exporter: ships anything still queued (including the
	// final collection's census) before the process exits.
	vm.CloseFleet()

	if *stats {
		fmt.Fprintf(stderr, "GC:        %s\n", vm.GCStats())
		if pr, ok := vm.Pressure(); ok {
			fmt.Fprintf(stderr, "pressure:  alloc EWMA %.0f words/s, %d occupancy samples\n",
				pr.AllocRateWps, len(pr.Occupancy))
		}
		st := vm.AssertionStats()
		fmt.Fprintf(stderr, "asserted:  %d dead (%d verified), %d unshared, %d owned pairs\n",
			st.DeadAsserted, st.DeadVerified, st.UnsharedAsserted, st.OwnedPairsAsserted)
		fmt.Fprintf(stderr, "violations: %d\n", st.Violations)
		if *fleetURL != "" {
			fx := vm.FleetExporter()
			xst := fx.Stats()
			fmt.Fprintf(stderr, "fleet:     instance %s: %d enqueued, %d sent, %d dropped, %d errors",
				fx.Identity().InstanceID, xst.Enqueued, xst.Sent, xst.Dropped, xst.Errors)
			if xst.LastErr != "" {
				fmt.Fprintf(stderr, " (last: %s)", xst.LastErr)
			}
			fmt.Fprintln(stderr)
		}
		if *fr {
			fst := vm.Flight().Stats()
			fmt.Fprintf(stderr, "flight:    %d cycles, %d violations recorded, %d dumps",
				fst.CyclesRecorded, fst.ViolationsRecorded, fst.Dumps)
			if fst.LastDumpErr != nil {
				fmt.Fprintf(stderr, " (last dump error: %v)", fst.LastDumpErr)
			}
			fmt.Fprintln(stderr)
		}
	}
	return 0
}

// watchLive subscribes to the runtime's live event feed and consumes it on a
// background goroutine: -explain prints one trigger line per collection,
// -top redraws the in-process dashboard. The returned drain function stops
// the subscription and waits for buffered frames, so the last collection's
// output lands before exit-time stats.
func watchLive(vm *gcassert.Runtime, explain, top bool, errw io.Writer) func() {
	ch, cancel := vm.Telemetry().SubscribeLive(256)
	done := make(chan struct{})
	model := topview.New()
	go func() {
		defer close(done)
		for frame := range ch {
			if explain {
				var ev gcassert.GCEvent
				if json.Unmarshal(frame, &ev) == nil && ev.Trigger != "" {
					line := fmt.Sprintf("gc %d: %s", ev.Seq+1, ev.Trigger)
					if ev.TriggerThread != "" {
						line += fmt.Sprintf(" [top allocator: %s]", ev.TriggerThread)
					}
					fmt.Fprintln(errw, line)
				}
			}
			if top {
				if model.FeedJSON(frame) == nil {
					fmt.Fprint(errw, "\x1b[2J\x1b[H")
					model.Render(errw)
				}
			}
		}
	}()
	return func() { cancel(); <-done }
}
