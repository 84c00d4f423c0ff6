package bench

import (
	"testing"
	"time"

	"gcassert"
	"gcassert/internal/bench/db"
)

// TestReproductionShape asserts the paper's headline shape on a small but
// GC-heavy configuration, on what repeats from run to run. Exact, every
// trial: Base and Infrastructure perform the same collections and mark the
// same objects (the infrastructure is semantically transparent); only
// WithAssertions does work in the ownership pre-phase, and it checks
// thousands of ownees per collection, the paper's _209_db character.
//
// One timing claim is kept, the one with a wide margin: full instrumentation
// keeps total time near Base (paper: ~1.01x; asserted: under 1.6x). It is a
// vote over paired trials, never a single gap. A round is shapeTrials trials
// of the three modes run back to back, and the claim holds when a majority
// of a round's trials show it. Retry budget: shapeRounds rounds; the first
// round where it holds passes. No GC-time ordering is asserted here: since
// the ownee side table the gaps (Infrastructure ~1.05x Base, WithAssertions
// ~1.1-1.3x at this scale) are inside one trial's swing on a loaded host.
// EXPERIMENTS.md records the magnitudes; the repo benchmark's embed-db
// workload bounds gc_ratio_vs_base.
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real workload")
	}
	const (
		shapeTrials = 5
		shapeRounds = 3
	)
	type trial struct {
		total   time.Duration
		gc      gcassert.GCStats
		asserts gcassert.AssertStats
	}
	run := func(mode Mode) trial {
		vm := gcassert.New(gcassert.Options{HeapBytes: 5 << 20, Infrastructure: mode != Base})
		cfg := db.DefaultConfig()
		cfg.Asserts = mode == WithAssertions
		d := db.New(vm, cfg)
		start := time.Now()
		d.RunIteration(0)
		return trial{time.Since(start), vm.GCStats(), vm.AssertionStats()}
	}

	for round := 1; round <= shapeRounds; round++ {
		totalNear := 0
		for i := 0; i < shapeTrials; i++ {
			base, infra, asserts := run(Base), run(Infra), run(WithAssertions)

			if base.gc.Collections < 2 || base.gc.Collections != infra.gc.Collections ||
				base.gc.ObjectsMarked != infra.gc.ObjectsMarked {
				t.Fatalf("Base made %d collections marking %d objects, Infrastructure %d marking %d; want the same, at least 2",
					base.gc.Collections, base.gc.ObjectsMarked, infra.gc.Collections, infra.gc.ObjectsMarked)
			}
			// Base never enters the pre-phase; Infrastructure enters it with
			// no owners registered and checks nothing.
			if base.gc.OwnershipTime != 0 || infra.asserts.OwneesChecked != 0 || asserts.gc.OwnershipTime <= 0 {
				t.Fatalf("ownership phase: Base spent %v, Infrastructure checked %d ownees, WithAssertions spent %v; want 0, 0, >0",
					base.gc.OwnershipTime, infra.asserts.OwneesChecked, asserts.gc.OwnershipTime)
			}
			if perGC := float64(asserts.asserts.OwneesChecked) / float64(asserts.gc.Collections); perGC < 1000 {
				t.Fatalf("ownees/GC = %.0f, expected thousands", perGC)
			}

			if float64(asserts.total) < 1.6*float64(base.total) {
				totalNear++
			}
		}
		if 2*totalNear > shapeTrials {
			return
		}
		t.Logf("round %d of %d: WithAssertions total within 1.6x of Base in %d of %d paired trials",
			round, shapeRounds, totalNear, shapeTrials)
	}
	t.Errorf("in none of %d rounds did a majority of %d paired trials keep WithAssertions total under 1.6x Base (paper: ~1.01x)",
		shapeRounds, shapeTrials)
}
