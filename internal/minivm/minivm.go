package minivm

import (
	"fmt"
	"io"
	"strings"

	"gcassert"
)

// RunOptions configures CompileAndRun.
type RunOptions struct {
	// HeapBytes sizes the managed heap (default 16 MiB).
	HeapBytes int
	// Out receives print() output (default: discarded).
	Out io.Writer
	// Reporter receives assertion violations; nil installs a collecting
	// reporter returned in the Result.
	Reporter gcassert.Reporter
	// MaxSteps bounds guest execution (0 = unlimited).
	MaxSteps uint64
	// FinalCollect forces a collection after main returns, so assertions
	// placed near the end of the program are still checked (on by default
	// in CompileAndRun).
	FinalCollect bool
	// Provenance enables exhaustive allocation-site provenance: every `new`
	// the guest executes is recorded against its method and source line, so
	// violations report who allocated the offending object and the census
	// breaks down by site.
	Provenance bool
	// FlightRecorder enables the GC flight recorder (see
	// gcassert.Options.FlightRecorder); dump a bundle from the Result's VM
	// with WriteFlightBundle.
	FlightRecorder bool
}

// Result is the outcome of CompileAndRun.
type Result struct {
	// VM is the runtime the program executed on.
	VM *gcassert.Runtime
	// Image is the loaded program.
	Image *Image
	// Violations collects every assertion violation (when no custom
	// reporter was supplied).
	Violations *gcassert.CollectingReporter
}

// CompileAndRun compiles src, loads it on a fresh infrastructure-mode
// runtime, runs Main.main(), forces a final collection, and returns the
// runtime state for inspection. Compile-time and guest runtime errors are
// returned as errors.
func CompileAndRun(src string, opt RunOptions) (*Result, error) {
	unit, err := Compile(src)
	if err != nil {
		return nil, err
	}
	if opt.HeapBytes == 0 {
		opt.HeapBytes = 16 << 20
	}
	res := &Result{Violations: &gcassert.CollectingReporter{}}
	rep := opt.Reporter
	if rep == nil {
		rep = res.Violations
	}
	prov := 0
	if opt.Provenance {
		prov = 1
	}
	res.VM = gcassert.New(gcassert.Options{
		HeapBytes:        opt.HeapBytes,
		Infrastructure:   true,
		Reporter:         rep,
		ProvenanceSample: prov,
		FlightRecorder:   opt.FlightRecorder,
	})
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	im, lerr := Load(res.VM, unit, out)
	if lerr != nil {
		return nil, lerr
	}
	im.MaxSteps = opt.MaxSteps
	res.Image = im
	if err := im.Run(); err != nil {
		return res, err
	}
	res.VM.Collect()
	return res, nil
}

// Disassemble renders a compiled method's bytecode for tools and tests.
func Disassemble(m *MethodInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (locals=%d, stack=%d)\n", m.Sig(), m.NumLocals, m.MaxStack)
	for pc, in := range m.Code {
		fmt.Fprintf(&b, "%4d  %s\n", pc, in)
	}
	return b.String()
}

// DisassembleUnit renders every method of a unit.
func DisassembleUnit(u *Unit) string {
	var b strings.Builder
	for _, m := range u.Methods {
		b.WriteString(Disassemble(m))
		b.WriteString("\n")
	}
	return b.String()
}
