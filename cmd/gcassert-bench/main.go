// Command gcassert-bench regenerates the paper's evaluation figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	gcassert-bench [-figure N] [-bench name] [-trials T] [-iters I] [-paper]
//
//	-figure 0      run everything (default): Figures 2, 3, 4 and 5
//	-figure 2|3    infrastructure overhead across the full suite
//	-figure 4|5    assertion overhead on _209_db and pseudojbb
//	-bench name    restrict to one workload
//	-paper         use the paper's full methodology (20 trials, 4 iterations)
//
// Exit status: 0 on success, 1 when the named workload does not exist, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gcassert/internal/bench"
	"gcassert/internal/bench/workloads"
	"gcassert/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: 0 on success, 1 on data errors, 2 on
// usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcassert-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.Int("figure", 0, "figure to regenerate (2, 3, 4, 5; 0 = all)")
	name := fs.String("bench", "", "run only the named workload")
	trials := fs.Int("trials", 0, "override number of trials")
	iters := fs.Int("iters", 0, "override iterations per trial")
	paper := fs.Bool("paper", false, "use the paper's full methodology (20 trials x 4 iterations)")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		version.Print(stdout, "gcassert-bench")
		return 0
	}

	usage := func(msg string) int {
		fmt.Fprintln(stderr, "gcassert-bench: usage: "+msg)
		return 2
	}

	if fs.NArg() != 0 {
		return usage("gcassert-bench takes no positional arguments")
	}
	switch *figure {
	case 0, 2, 3, 4, 5:
	default:
		return usage(fmt.Sprintf("unknown figure %d (want 2, 3, 4, 5 or 0)", *figure))
	}

	opt := bench.DefaultOptions()
	if *paper {
		opt = bench.PaperOptions()
	}
	if *trials > 0 {
		opt.Trials = *trials
	}
	if *iters > 0 {
		opt.Iterations = *iters
	}

	suite := workloads.All()
	if *name != "" {
		w, err := workloads.ByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "gcassert-bench:", err)
			return 1
		}
		suite = []bench.Workload{w}
	}

	wantInfraFigs := *figure == 0 || *figure == 2 || *figure == 3
	wantAssertFigs := *figure == 0 || *figure == 4 || *figure == 5

	var infraComps, assertComps []*bench.Comparison
	if wantInfraFigs {
		for _, w := range suite {
			fmt.Fprintf(stderr, "measuring %-12s (Base, Infrastructure; %d trials x %d iters)\n",
				w.Name, opt.Trials, opt.Iterations)
			infraComps = append(infraComps, bench.Compare(w, []bench.Mode{bench.Base, bench.Infra}, opt))
		}
	}
	if wantAssertFigs {
		for _, w := range suite {
			if !w.HasAsserts {
				continue
			}
			fmt.Fprintf(stderr, "measuring %-12s (Base, Infrastructure, WithAssertions)\n", w.Name)
			assertComps = append(assertComps,
				bench.Compare(w, []bench.Mode{bench.Base, bench.Infra, bench.WithAssertions}, opt))
		}
	}

	switch *figure {
	case 0:
		bench.PrintFigure2(stdout, infraComps)
		bench.PrintFigure3(stdout, infraComps)
		bench.PrintFigure4(stdout, assertComps)
		bench.PrintFigure5(stdout, assertComps)
	case 2:
		bench.PrintFigure2(stdout, infraComps)
	case 3:
		bench.PrintFigure3(stdout, infraComps)
	case 4:
		bench.PrintFigure4(stdout, assertComps)
	case 5:
		bench.PrintFigure5(stdout, assertComps)
	}
	return 0
}
