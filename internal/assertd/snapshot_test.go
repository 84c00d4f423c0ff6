package assertd

import (
	"testing"

	"gcassert/internal/slo"
)

// refreshSnapshotAllocs is what one stats-snapshot refresh allocates on the
// host for a tenant with SLO, tracing and introspection on: the pause
// histogram's snapshot, the assertion cost slice, and the SLO status
// document with its objective and alert slices, each slice made once at its
// final size. The fifteen gcassertd_slo_* series it re-registers are
// registry hits and must allocate nothing.
const refreshSnapshotAllocs = 5

// TestRefreshSnapshotAllocations pins the per-command cost of the cached
// stats refresh, which runs after every command, before the guest is put
// back and the reply written.
func TestRefreshSnapshotAllocations(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	tn, err := s.CreateTenant("snap", TenantOptions{
		HeapMiB:       2,
		Introspection: true,
		Trace:         &TraceOptions{Probability: 0.05},
		SLO: &slo.Spec{Objectives: []slo.Objective{
			{Kind: slo.KindAvailability, TargetPct: 99.9},
			{Kind: slo.KindViolationRate, MaxPerMillion: 1000},
			{Kind: slo.KindPauseP99, MaxMs: 50},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Submit(benchSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Drive(20, true); err != nil {
		t.Fatal(err)
	}
	var allocs float64
	if err := tn.do(func(g *guest) error {
		allocs = testing.AllocsPerRun(200, func() { tn.refreshSnapshot(g) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("refreshSnapshot: %.2f allocations", allocs)
	if allocs > refreshSnapshotAllocs {
		t.Errorf("refreshSnapshot allocates %.2f times, want at most %d", allocs, refreshSnapshotAllocs)
	}
}
