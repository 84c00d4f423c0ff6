package heap

import (
	"runtime"
	"testing"
)

func hostMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkSweep times Space.Sweep alone on the three heap shapes the
// repository benchmark's workloads hand it, and reports ns per cell that was
// allocated when the sweep ran — the quantity a bitmap sweep is linear in.
// Every timed sweep self-asserts zero host allocations.
//
//   - guest-all-dead: svc-guest — 135 000 four- and six-word cells, 126
//     survive, an irregular third of the dead carry FlagDead.
//   - graph-mostly-live: gc-trace — 66 000 cells, 500 die: the sweep is the
//     survivors' header load and mark-bit clear.
//   - db-side-table-rows: embed-db — 200 000 cells, a side-table entry on
//     every fifth, 15 000 die with their entries.
func BenchmarkSweep(b *testing.B) {
	shapes := []struct {
		name     string
		cells    int
		lens     []int // word-array lengths, cycled
		dies     func(i int) bool
		asserted bool // FlagDead on a third of the dying cells
		entries  bool // a side-table entry on every fifth cell
	}{
		{"guest-all-dead", 135_000, []int{3, 5}, func(i int) bool { return i%1071 != 0 }, true, false},
		{"graph-mostly-live", 66_000, []int{2, 3, 5, 7}, func(i int) bool { return i%132 == 0 }, false, false},
		{"db-side-table-rows", 200_000, []int{3, 4, 7, 11, 5}, func(i int) bool { return i%65 < 5 }, false, true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			// One P, as testing.AllocsPerRun does (see core's bench_test.go).
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			s := NewSpace(NewRegistry(), 16<<20)
			tab := s.NewCellTable()
			slots := make([]Addr, sh.cells)
			// refill allocates into every slot whose object died (all of
			// them the first time) and marks the objects that will survive.
			refill := func() {
				for i := range slots {
					if slots[i] != Nil && !sh.dies(i) {
						s.SetMark(slots[i])
						continue
					}
					a, ok := s.Allocate(TWordArray, sh.lens[i%len(sh.lens)])
					if !ok {
						b.Fatal("heap exhausted")
					}
					slots[i] = a
					if sh.entries && i%5 == 0 {
						tab.Set(a, uint32(i+1))
					}
					if !sh.dies(i) {
						s.SetMark(a)
					} else if sh.asserted && uint32(i)*2654435761>>16%3 == 0 {
						s.SetFlag(a, FlagDead)
					}
				}
			}
			for i := 0; i < 3; i++ { // settle block lists and side-table rows
				refill()
				s.Sweep()
			}
			freed := 0
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				refill()
				m0 := hostMallocs()
				b.StartTimer()
				res := s.Sweep()
				b.StopTimer()
				if got := hostMallocs() - m0; got != 0 {
					b.Fatalf("sweep allocated %d times on the host", got)
				}
				if res.ObjectsFreed+res.ObjectsLive != sh.cells {
					b.Fatalf("swept %d+%d cells, want %d", res.ObjectsFreed, res.ObjectsLive, sh.cells)
				}
				freed += res.ObjectsFreed
			}
			if err := s.Verify(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.cells), "ns/cell")
			b.ReportMetric(float64(freed)/float64(b.N), "freed/sweep")
		})
	}
}

// BenchmarkAllocate times Space.Allocate for a small and a large small-object
// cell, filling the heap and sweeping everything away (untimed) when it is
// full, as an all-dead guest does.
func BenchmarkAllocate(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"4w", 3}, {"64w", 63}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSpace(NewRegistry(), 16<<20)
			for ok := true; ok; { // carve every block once
				_, ok = s.Allocate(TWordArray, bc.n)
			}
			s.Sweep()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Allocate(TWordArray, bc.n); !ok {
					b.StopTimer()
					s.Sweep()
					b.StartTimer()
					i--
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/object")
		})
	}
}
