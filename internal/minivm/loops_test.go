package minivm

import (
	"strings"
	"testing"
)

func TestForLoopBasics(t *testing.T) {
	lines, _ := run(t, `
class Main {
  void main() {
    int sum = 0;
    for (int i = 0; i < 10; i = i + 1) { sum = sum + i; }
    print(sum);
    // Header parts are each optional.
    int j = 0;
    for (; j < 3;) { j = j + 1; }
    print(j);
    for (int k = 9; ; k = k - 1) { if (k < 7) { break; } }
    print(1);
  }
}`)
	want := []string{"45", "3", "1"}
	if strings.Join(lines, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", lines, want)
	}
}

func TestForScopesInitVariable(t *testing.T) {
	// i is scoped to the for statement: redeclaration afterwards is legal.
	lines, _ := run(t, `
class Main {
  void main() {
    for (int i = 0; i < 2; i = i + 1) { print(i); }
    int i = 99;
    print(i);
  }
}`)
	want := []string{"0", "1", "99"}
	if strings.Join(lines, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", lines, want)
	}
}

func TestBreakAndContinue(t *testing.T) {
	lines, _ := run(t, `
class Main {
  void main() {
    // continue skips evens; break stops at 7.
    int sum = 0;
    for (int i = 0; i < 100; i = i + 1) {
      if (i % 2 == 0) { continue; }
      if (i > 7) { break; }
      sum = sum + i;       // 1 + 3 + 5 + 7
    }
    print(sum);

    // while with break/continue: continue must re-test the condition.
    int i = 0;
    int n = 0;
    while (i < 10) {
      i = i + 1;
      if (i % 3 != 0) { continue; }
      if (i == 9) { break; }
      n = n + i;           // 3 + 6
    }
    print(n);

    // Nested loops: break/continue bind to the innermost loop.
    int hits = 0;
    for (int a = 0; a < 3; a = a + 1) {
      for (int b = 0; b < 10; b = b + 1) {
        if (b == 2) { break; }
        hits = hits + 1;   // 2 per outer iteration
      }
    }
    print(hits);
  }
}`)
	want := []string{"16", "9", "6"}
	if strings.Join(lines, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", lines, want)
	}
}

func TestForWithObjects(t *testing.T) {
	lines, _ := run(t, `
class Node { Node next; int v; }
class Main {
  void main() {
    Node head = null;
    for (int i = 0; i < 20; i = i + 1) {
      Node n = new Node();
      n.v = i;
      n.next = head;
      head = n;
    }
    int sum = 0;
    for (Node p = head; p != null; p = p.next) { sum = sum + p.v; }
    print(sum);
  }
}`)
	if len(lines) != 1 || lines[0] != "190" {
		t.Errorf("output = %v", lines)
	}
}

func TestLoopCompileErrors(t *testing.T) {
	mustFailCompile(t, `class Main { void main() { break; } }`, "break outside")
	mustFailCompile(t, `class Main { void main() { continue; } }`, "continue outside")
	mustFailCompile(t, `class Main { void main() { if (1) { break; } } }`, "break outside")
	mustFailCompile(t, `class A {} class Main { void main() { for (;new A();) {} } }`, "must be int")
	mustFailCompile(t, `class Main { void main() { for (int i = 0; i < 3) {} } }`, "expected")
}
