package assertd

import (
	"testing"

	"gcassert/internal/telemetry"
	"gcassert/internal/trace"
)

// BenchmarkTracingOn measures the enabled-mode cost of building one traced
// request (span open/close plus one GC event tap) for the EXPERIMENTS
// overhead table. The tenant's builder is reset each iteration the way a
// drive batch resets it, and no trace is finished, isolating record cost
// from store cost.
func BenchmarkTracingOn(b *testing.B) {
	s := NewServer(Config{})
	defer s.Close()
	tn, err := s.CreateTenant("bench", TenantOptions{Trace: &TraceOptions{Probability: 0}})
	if err != nil {
		b.Fatal(err)
	}

	ev := &telemetry.Event{StartUnixNs: 1000, TotalNs: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := tn.traceBegin(trace.SpanContext{}, 1, false)
		tb.StartRequest(int64(i))
		tn.traceTapEvent(ev)
		tb.EndRequest(int64(i)+10, "", false, 0)
		tn.activeTrace = nil
	}
}

// benchSrc is a small violation-free guest for the drive-level overhead
// rows of the EXPERIMENTS tracing table.
const benchSrc = `
class Node { Node next; }
class Main {
  void main() {
    Node g = null;
    int j = 0;
    while (j < 16) { Node t = new Node(); t.next = g; g = t; j = j + 1; }
    g = null;
    gc();
  }
}`

// benchDrive measures one full Tenant.Drive per iteration under the
// given tenant options: the end-to-end number the per-seam benchmarks
// decompose.
func benchDrive(b *testing.B, topts TenantOptions) {
	s := NewServer(Config{})
	defer s.Close()
	tn, err := s.CreateTenant("bench", topts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tn.Submit(benchSrc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Drive(1, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDriveUntraced(b *testing.B) {
	benchDrive(b, TenantOptions{HeapMiB: 2})
}

func BenchmarkDriveTracedSampledOut(b *testing.B) {
	benchDrive(b, TenantOptions{HeapMiB: 2, Trace: &TraceOptions{Probability: 0}})
}

func BenchmarkDriveTracedKept(b *testing.B) {
	benchDrive(b, TenantOptions{HeapMiB: 2, Trace: &TraceOptions{Probability: 1}})
}
