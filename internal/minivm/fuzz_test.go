package minivm

import (
	"io"
	"runtime"
	"sort"
	"testing"

	"gcassert"
)

// The interpreter tests nothing Verify has proved — pc, operand depth, slot
// kind, local index — so these two targets hold Verify to it: whatever it
// accepts, from the compiler or from a mutated instruction stream, must run
// without the interpreter's own stacks, locals or code faulting.

// fuzzRun loads unit on a small fresh runtime and runs it under a small step
// budget. A normal return, a trap and a host panic that is allowed to pass
// through Run — out of memory, a core or heap check (strings and *OOMError) —
// all pass. A Go runtime.Error is never allowed: it fails t.
func fuzzRun(t *testing.T, unit *Unit) {
	t.Helper()
	im := newImage(t, unit, gcassert.Options{HeapBytes: 256 << 10}, io.Discard)
	im.MaxSteps = 20_000
	defer func() {
		if re, ok := recover().(runtime.Error); ok {
			t.Fatalf("interpreter fault on verified code: %v\n%s", re, DisassembleUnit(unit))
		}
	}()
	_ = im.Run()
}

// fuzzSeeds returns the example programs in a fixed order.
func fuzzSeeds(tb testing.TB) []string {
	srcs := exampleSources(tb)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	seeds := make([]string, len(names))
	for i, name := range names {
		seeds[i] = srcs[name]
	}
	return seeds
}

// FuzzCompileRun: no source makes the lexer, parser, type checker or
// compiler panic, and what compiles passes Verify and runs to a return, a
// trap or an allowed host panic.
func FuzzCompileRun(f *testing.F) {
	for _, src := range fuzzSeeds(f) {
		f.Add(src)
	}
	f.Add(deepThenShallow)
	f.Add(`class Main { int f(int n) { return this.f(n + 1); } void main() { print(this.f(0)); } }`)
	f.Add(`class A { int[] v; A next; } class Main { void main() { A a = new A(); a.v = new int[3]; a.v[2] = 7 / (a.v[1] - 0); print(length(a.v)); } }`)
	f.Fuzz(func(t *testing.T, src string) {
		unit, err := Compile(src)
		if err != nil {
			return
		}
		if err := Verify(unit); err != nil {
			t.Fatalf("compiler output fails Verify: %v", err)
		}
		fuzzRun(t, unit)
	})
}

// FuzzVerifiedBytecode mutates the instruction stream of a compiled example:
// every four bytes of edits pick a method, an instruction, one of its three
// fields and a new value. If Verify still accepts the unit, running it must
// not fault the interpreter. A hand-built unit can still name a field slot
// its class lacks or call a method on the wrong class; the heap's typed
// accessors panic with a string on those, and that is the only kind of
// panic, beside out of memory, that fuzzRun lets through.
func FuzzVerifiedBytecode(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i := range seeds {
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), []byte{0, 3, 2, 200, 1, 5, 1, 1})
	}
	f.Fuzz(func(t *testing.T, seed uint8, edits []byte) {
		unit := mustCompile(t, seeds[int(seed)%len(seeds)])
		for ; len(edits) >= 4; edits = edits[4:] {
			m := unit.Methods[int(edits[0])%len(unit.Methods)]
			in := &m.Code[int(edits[1])%len(m.Code)]
			switch v := edits[3]; edits[2] % 3 {
			case 0:
				in.Op = Op(v % uint8(OpRegionAllDead+2)) // one past the last is no opcode
			case 1:
				in.A = int(int8(v))
			case 2:
				in.K = int64(int8(v))
			}
		}
		if Verify(unit) != nil {
			return
		}
		fuzzRun(t, unit)
	})
}
