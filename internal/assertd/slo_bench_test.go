package assertd

import (
	"testing"
	"time"

	"gcassert/internal/slo"
)

// BenchmarkSLORecord measures the enabled-mode cost of one request record
// (ring add + two-rule evaluation) for the EXPERIMENTS overhead table.
func BenchmarkSLORecord(b *testing.B) {
	s := NewServer(Config{})
	defer s.Close()
	spec := &slo.Spec{
		Window:     slo.Duration(time.Hour),
		Objectives: []slo.Objective{{Kind: slo.KindViolationRate, MaxPerMillion: 100}},
	}
	tn, err := s.CreateTenant("bench", TenantOptions{SLO: spec})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.sloRecordRequests(1, 0, 0)
	}
}
