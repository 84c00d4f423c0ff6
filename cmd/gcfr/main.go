// Command gcfr inspects GC flight-recorder bundles: the forensic dumps the
// runtime writes on an assertion violation, a SIGQUIT request (mjrun), or a
// /debug/gcassert/fr scrape.
//
// Usage:
//
//	gcfr bundle.json                 pretty-print one bundle
//	gcfr -diff old.json new.json     diff two bundles' heap profiles
//	gcfr -pprof out.pb.gz bundle.json  extract the embedded heap profile
//
//	-cycles 10   recent cycles shown (0 = all)
//	-top 15      heap-profile rows shown (0 = all)
//
// The extracted profile is a gzipped pprof protobuf; `go tool pprof
// -sample_index=1 out.pb.gz` shows live bytes per allocation site.
//
// Exit status: 0 on success, 1 when an input file is missing or malformed
// (including unsupported bundle schema versions), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"gcassert/internal/flight"
	"gcassert/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: flags from args, report to stdout,
// diagnostics to stderr, exit code returned. 2 means the invocation was
// wrong (bad flags, wrong arity); 1 means the invocation was fine but an
// input could not be read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcfr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "diff two bundles (old new): heap growth by site, activity deltas")
	pprofOut := fs.String("pprof", "", "write the bundle's embedded heap profile to this file and exit")
	cycles := fs.Int("cycles", 10, "recent cycles to show (0 = all)")
	top := fs.Int("top", 15, "heap profile rows to show (0 = all)")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the problem + usage to stderr
	}
	if *showVersion {
		version.Print(stdout, "gcfr")
		return 0
	}

	usage := func(msg string) int {
		fmt.Fprintln(stderr, "gcfr: usage: "+msg)
		return 2
	}
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, "gcfr:", err)
		return 1
	}

	switch {
	case *diff:
		if fs.NArg() != 2 {
			return usage("gcfr -diff old.json new.json")
		}
		old, err := readBundle(fs.Arg(0))
		if err != nil {
			return dataErr(err)
		}
		new_, err := readBundle(fs.Arg(1))
		if err != nil {
			return dataErr(err)
		}
		if err := diffBundles(stdout, old, new_); err != nil {
			return dataErr(err)
		}
	case *pprofOut != "":
		if fs.NArg() != 1 {
			return usage("gcfr -pprof out.pb.gz bundle.json")
		}
		b, err := readBundle(fs.Arg(0))
		if err != nil {
			return dataErr(err)
		}
		if len(b.HeapProfile) == 0 {
			return dataErr(fmt.Errorf("%s: bundle carries no heap profile (was provenance enabled?)", fs.Arg(0)))
		}
		if err := os.WriteFile(*pprofOut, b.HeapProfile, 0o644); err != nil {
			return dataErr(err)
		}
		fmt.Fprintf(stdout, "wrote %d bytes to %s (try: go tool pprof -top -sample_index=1 %s)\n",
			len(b.HeapProfile), *pprofOut, *pprofOut)
	default:
		if fs.NArg() != 1 {
			return usage("gcfr [-cycles N] [-top N] bundle.json (or -diff, -pprof; see -h)")
		}
		b, err := readBundle(fs.Arg(0))
		if err != nil {
			return dataErr(err)
		}
		if err := printBundle(stdout, b, *cycles, *top); err != nil {
			return dataErr(err)
		}
	}
	return 0
}

func readBundle(path string) (flight.Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return flight.Bundle{}, err
	}
	defer f.Close()
	b, err := flight.ReadBundle(f)
	if err != nil {
		return flight.Bundle{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func printBundle(w io.Writer, b flight.Bundle, maxCycles, top int) error {
	fmt.Fprintf(w, "flight bundle  trigger=%s  captured=%s\n",
		b.Trigger, time.Unix(0, b.CapturedUnixNs).UTC().Format(time.RFC3339))
	if b.Instance != nil {
		fmt.Fprintf(w, "instance: %s on %s (pid %d, %s)\n",
			b.Instance.InstanceID, b.Instance.Host, b.Instance.PID, b.Instance.Build.Version)
	}
	fmt.Fprintf(w, "recorded: %d cycles total (%d retained), %d violations total (%d retained)\n\n",
		b.TotalCycles, len(b.Cycles), b.TotalViolations, len(b.Violations))

	cys := b.Cycles
	if maxCycles > 0 && len(cys) > maxCycles {
		fmt.Fprintf(w, "cycles (last %d of %d retained):\n", maxCycles, len(cys))
		cys = cys[len(cys)-maxCycles:]
	} else {
		fmt.Fprintln(w, "cycles:")
	}
	fmt.Fprintf(w, "  %4s %-14s %10s %8s %8s %8s %s\n",
		"gc", "reason", "total", "marked", "freed", "live", "notes")
	for i := range cys {
		cy := &cys[i]
		notes := ""
		if n := violationsIn(b, cy.GC); n > 0 {
			notes = fmt.Sprintf("%d violation(s)", n)
		}
		fmt.Fprintf(w, "  %4d %-14s %10s %8d %8d %8d %s\n",
			cy.GC, cy.Reason, time.Duration(cy.TotalNs), cy.ObjectsMarked,
			cy.ObjectsFreed, cy.ObjectsLive, notes)
		for _, d := range cy.CensusDelta {
			fmt.Fprintf(w, "       %+d %s (%+d words)\n", d.Objects, d.TypeName, d.Words)
		}
	}

	if len(b.Violations) > 0 {
		fmt.Fprintln(w, "\nviolations:")
		for i := range b.Violations {
			v := &b.Violations[i]
			fmt.Fprintf(w, "  gc %d  %s  %s", v.GC, v.Kind, v.TypeName)
			if v.Site != "" {
				fmt.Fprintf(w, "  allocated at %s", v.Site)
			}
			fmt.Fprintln(w)
			if len(v.Path) > 0 {
				fmt.Fprintf(w, "        path: %s -> %s\n", v.Root, strings.Join(v.Path, " -> "))
			}
		}
	}

	if len(b.HeapProfile) > 0 {
		prof, err := flight.ParseProfile(b.HeapProfile)
		if err != nil {
			return fmt.Errorf("embedded heap profile: %w", err)
		}
		fmt.Fprintf(w, "\nheap profile (%d sites):\n", len(prof.Samples))
		fmt.Fprintf(w, "  %9s %12s  %-20s %s\n", "objects", "bytes", "type", "site")
		for i, s := range prof.Samples {
			if top > 0 && i == top {
				fmt.Fprintf(w, "  ... %d more\n", len(prof.Samples)-top)
				break
			}
			fmt.Fprintf(w, "  %9d %12d  %-20s %s\n", s.Values[0], s.Values[1], s.Labels["type"], s.Sites[0])
		}
	}
	return nil
}

func violationsIn(b flight.Bundle, gc uint64) int {
	n := 0
	for i := range b.Violations {
		if b.Violations[i].GC == gc {
			n++
		}
	}
	return n
}

// diffBundles reports what changed between two dumps: per-(site, type) heap
// growth — the leak-hunting view — plus cycle and violation counters.
func diffBundles(w io.Writer, old, new_ flight.Bundle) error {
	fmt.Fprintf(w, "cycles:     %d -> %d (+%d)\n", old.TotalCycles, new_.TotalCycles,
		int64(new_.TotalCycles)-int64(old.TotalCycles))
	fmt.Fprintf(w, "violations: %d -> %d (+%d)\n", old.TotalViolations, new_.TotalViolations,
		int64(new_.TotalViolations)-int64(old.TotalViolations))

	type key struct{ site, typ string }
	type row struct {
		key
		objects, bytes int64
	}
	acc := map[key]*row{}
	load := func(b flight.Bundle, sign int64) error {
		if len(b.HeapProfile) == 0 {
			return nil
		}
		prof, err := flight.ParseProfile(b.HeapProfile)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		for _, s := range prof.Samples {
			k := key{site: s.Sites[0], typ: s.Labels["type"]}
			r := acc[k]
			if r == nil {
				r = &row{key: k}
				acc[k] = r
			}
			r.objects += sign * s.Values[0]
			r.bytes += sign * s.Values[1]
		}
		return nil
	}
	if err := load(old, -1); err != nil {
		return err
	}
	if err := load(new_, +1); err != nil {
		return err
	}
	var rows []*row
	for _, r := range acc {
		if r.objects != 0 || r.bytes != 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ai, aj := abs(rows[i].bytes), abs(rows[j].bytes)
		if ai != aj {
			return ai > aj
		}
		return rows[i].site < rows[j].site
	})
	if len(rows) == 0 {
		fmt.Fprintln(w, "heap: no per-site change")
		return nil
	}
	fmt.Fprintln(w, "heap delta by allocation site (new - old):")
	fmt.Fprintf(w, "  %+9s %+12s  %-20s %s\n", "objects", "bytes", "type", "site")
	for _, r := range rows {
		fmt.Fprintf(w, "  %+9d %+12d  %-20s %s\n", r.objects, r.bytes, r.typ, r.site)
	}
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
