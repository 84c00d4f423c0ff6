package assertd

import (
	"testing"

	"gcassert"
	"gcassert/internal/telemetry"
	"gcassert/internal/trace"
)

// BenchmarkLayersOff pins what a tenant's optional layers cost when they are
// off, as they are by default: nothing. Each row is one layer's record
// seams on a tenant that did not configure it, and asserts before timing
// that the layer reports itself off and that one pass over its seams makes
// 0 host allocations:
//
//   - SLO: sloRecordRequests and sloRecordPause reduce to an atomic load
//     and a nil check on the request and GC paths;
//   - Tracing: traceBegin is one atomic load plus a nil check and returns
//     no builder, and the GC-event and violation taps are one nil check
//     each.
//
// so `go test -bench BenchmarkLayersOff` fails loudly on a regression. The
// root package's BenchmarkLayersOff is the same table for the runtime's
// layers.
func BenchmarkLayersOff(b *testing.B) {
	ev := &telemetry.Event{}
	v := &gcassert.Violation{}
	layers := []struct {
		name  string
		off   func(tn *Tenant) bool
		seams func(tn *Tenant)
	}{
		{"SLO", func(tn *Tenant) bool { return tn.sloT.Load() == nil }, func(tn *Tenant) {
			tn.sloRecordRequests(1, 0, 0)
			tn.sloRecordPause(1_000_000, 10_000)
		}},
		{"Tracing", func(tn *Tenant) bool { return tn.traceBegin(trace.SpanContext{}, 1, false) == nil }, func(tn *Tenant) {
			tn.traceBegin(trace.SpanContext{}, 1, false)
			tn.traceTapEvent(ev)
			tn.traceTapViolation(v)
		}},
	}
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			s := NewServer(Config{})
			defer s.Close()
			tn, err := s.CreateTenant("bench", TenantOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !l.off(tn) {
				b.Fatalf("%s reports itself on in a tenant that did not configure it", l.name)
			}
			if allocs := testing.AllocsPerRun(1000, func() { l.seams(tn) }); allocs > 0.0001 {
				b.Fatalf("%s off: the record seams allocate %.4f times/op, want 0", l.name, allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.seams(tn)
			}
		})
	}
}
