package wutil

import (
	"fmt"
	"io"
	"time"

	"gcassert"
)

// WriteGCSummary writes the standard end-of-run GC summary shared by the
// command-line tools (gctrace, gcheap): collection
// counts, the event-stream-vs-GCStats cross-check, and pause percentiles.
//
// The cross-check exists because the telemetry event stream and the
// collector's cumulative stats measure the same phases independently; any
// deviation beyond ring-eviction effects would mean one of them is lying.
// Runtimes without telemetry get the GCStats half only.
func WriteGCSummary(w io.Writer, vm *gcassert.Runtime, elapsed time.Duration) {
	st := vm.GCStats()
	fmt.Fprintf(w, "\n%d collections in %v (%.1f%% of wall time in GC)\n",
		st.Collections, elapsed.Round(time.Millisecond),
		100*float64(st.TotalGCTime)/float64(elapsed))

	tel := vm.Telemetry()
	if tel == nil {
		fmt.Fprintf(w, "GC time: ownership %v  mark %v  sweep %v  total %v\n",
			st.OwnershipTime, st.MarkTime, st.SweepTime, st.TotalGCTime)
		return
	}

	events := tel.Events()
	var own, mark, sweep, total int64
	for i := range events {
		e := &events[i]
		own += e.PhaseNs("ownership")
		mark += e.PhaseNs("mark")
		sweep += e.PhaseNs("sweep")
		total += e.TotalNs
	}
	dev := func(evNs int64, st time.Duration) string {
		if st == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.3f%%", 100*(float64(evNs)/float64(st)-1))
	}
	fmt.Fprintf(w, "event stream vs GCStats (deviation):\n")
	fmt.Fprintf(w, "  ownership %12v vs %12v  %s\n", time.Duration(own), st.OwnershipTime, dev(own, st.OwnershipTime))
	fmt.Fprintf(w, "  mark      %12v vs %12v  %s\n", time.Duration(mark), st.MarkTime, dev(mark, st.MarkTime))
	fmt.Fprintf(w, "  sweep     %12v vs %12v  %s\n", time.Duration(sweep), st.SweepTime, dev(sweep, st.SweepTime))
	fmt.Fprintf(w, "  total     %12v vs %12v  %s\n", time.Duration(total), st.TotalGCTime, dev(total, st.TotalGCTime))
	h := tel.PauseHistogram()
	fmt.Fprintf(w, "pause: p50 %v  p90 %v  p95 %v  p99 %v  max %v\n",
		h.Quantile(0.5).Round(time.Microsecond), h.Quantile(0.9).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond), h.Max().Round(time.Microsecond))
	if n := tel.Ring().Total(); n > uint64(len(events)) {
		fmt.Fprintf(w, "note: ring retained %d of %d events; raise the ring size for full-run exports\n", len(events), n)
	}
}
