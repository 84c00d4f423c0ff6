package minivm

import (
	"io"
	"strings"
	"testing"

	"gcassert"
)

// compileOK compiles a known-good program for verifier mutation tests.
func compileOK(t *testing.T) *Unit {
	t.Helper()
	unit, err := Compile(`
class Node { Node next; int v; }
class Main {
  int f(Node n, int x) {
    if (n == null) { return x; }
    return f(n.next, x + n.v);
  }
  void main() {
    Node a = new Node();
    a.v = 5;
    print(f(a, 1));
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	return unit
}

func TestVerifyAcceptsCompilerOutput(t *testing.T) {
	unit := compileOK(t)
	if err := Verify(unit); err != nil {
		t.Fatalf("compiler output rejected: %v", err)
	}
}

// TestVerifyAcceptsAllTestPrograms runs the verifier over every compiled
// program in the test suite's corpus.
func TestVerifyAcceptsAllTestPrograms(t *testing.T) {
	for _, src := range []string{bstProgram} {
		unit, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(unit); err != nil {
			t.Errorf("verify: %v", err)
		}
	}
}

// mutate applies fn to Main.main's code and expects the verifier to object
// with a message containing want.
func mutate(t *testing.T, want string, fn func(m *MethodInfo)) {
	t.Helper()
	unit := compileOK(t)
	fn(unit.Main)
	err := Verify(unit)
	if err == nil {
		t.Fatalf("corrupted code verified clean (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestVerifyRejectsCorruptedCode(t *testing.T) {
	t.Run("underflow", func(t *testing.T) {
		mutate(t, "underflow", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpAdd}
		})
	})
	t.Run("type-confusion-pop", func(t *testing.T) {
		mutate(t, "want ref", func(m *MethodInfo) {
			// const pushes an int; assert.dead pops a ref.
			m.Code[0] = Instr{Op: OpConstInt, K: 1}
			m.Code[1] = Instr{Op: OpAssertDead}
		})
	})
	t.Run("bad-jump-target", func(t *testing.T) {
		mutate(t, "out of range", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpJmp, A: 9999}
		})
	})
	t.Run("bad-local", func(t *testing.T) {
		mutate(t, "local 99 out of range", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpLoadInt, A: 99}
		})
	})
	t.Run("ref-local-as-int", func(t *testing.T) {
		mutate(t, "-ref", func(m *MethodInfo) {
			// Local 0 is `this` (a ref); loading it as int must fail.
			m.Code[0] = Instr{Op: OpLoadInt, A: 0}
		})
	})
	t.Run("bad-class", func(t *testing.T) {
		mutate(t, "class 42 out of range", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpNewObj, A: 42}
		})
	})
	t.Run("bad-method", func(t *testing.T) {
		mutate(t, "method 42 out of range", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpLoadRef, A: 0}
			m.Code[1] = Instr{Op: OpCall, A: 42}
		})
	})
	t.Run("wrong-ret-kind", func(t *testing.T) {
		mutate(t, "ret.i in void-returning method", func(m *MethodInfo) {
			m.Code[0] = Instr{Op: OpConstInt, K: 0}
			m.Code[1] = Instr{Op: OpRetInt}
		})
	})
	t.Run("fall-off-end", func(t *testing.T) {
		mutate(t, "out of range", func(m *MethodInfo) {
			// Replace the final ret with a nop: control falls off the end.
			m.Code[len(m.Code)-1] = Instr{Op: OpNop}
		})
	})
	t.Run("overflow", func(t *testing.T) {
		mutate(t, "overflow", func(m *MethodInfo) {
			m.MaxStack = 1
		})
	})
	// A call makes the caller's top operand slots the callee's first locals,
	// so a method must have them, with the kinds its signature declares.
	t.Run("no-local-for-this", func(t *testing.T) {
		mutate(t, "0 locals", func(m *MethodInfo) {
			m.NumLocals, m.RefSlot = 0, nil
		})
	})
	t.Run("this-as-int", func(t *testing.T) {
		mutate(t, "local 0 is false-ref", func(m *MethodInfo) {
			m.RefSlot[0] = false
		})
	})
}

func TestVerifyRejectsInconsistentJoin(t *testing.T) {
	unit := compileOK(t)
	m := unit.Main
	// Hand-craft a join where one path pushes an int and the other a ref,
	// both arriving at the same pc.
	m.Code = []Instr{
		{Op: OpConstInt, K: 1}, // 0: push int
		{Op: OpJz, A: 4},       // 1: branch
		{Op: OpConstInt, K: 7}, // 2: then-path pushes int
		{Op: OpJmp, A: 5},      // 3:
		{Op: OpNull},           // 4: else-path pushes ref
		{Op: OpPopInt},         // 5: join
		{Op: OpRetVoid},        // 6:
	}
	m.Pos = make([]Pos, len(m.Code))
	m.MaxStack = 4
	err := Verify(unit)
	if err == nil || !strings.Contains(err.Error(), "inconsistent stack type") {
		t.Fatalf("err = %v, want inconsistent-join error", err)
	}
}

func TestLoadRejectsUnverifiableCode(t *testing.T) {
	unit := compileOK(t)
	unit.Main.Code[0] = Instr{Op: OpAdd} // corrupt
	vm := gcassert.New(gcassert.Options{HeapBytes: 2 << 20, Infrastructure: true})
	_, lerr := Load(vm, unit, io.Discard)
	if lerr == nil {
		t.Fatal("Load accepted unverifiable code")
	}
	if !strings.Contains(lerr.Error(), "underflow") {
		t.Errorf("err = %v", lerr)
	}
}
