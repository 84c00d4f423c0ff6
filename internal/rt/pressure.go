package rt

import (
	"fmt"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// Mutator-side heap-pressure accounting and the trigger explainer. It comes
// with Config.Telemetry; off (the default), the allocation path pays one
// nil-check and the collector's observer list has no pressure tracker.
//
// The tracker is the collector's first observer: its GCBegin runs at the
// top of every collection, inside the stop-the-world pause, and answers the
// operator question the raw Reason
// label cannot: *why now, and who did it* — occupancy at trigger time, the
// allocation-rate EWMA over recent inter-GC windows, and the dominant
// allocating thread (and site, when provenance is on) since the previous
// collection.

// OccupancySample is one point on the heap-occupancy timeline: occupancy at
// a collection trigger.
type OccupancySample struct {
	UnixNs int64   `json:"unix_ns"`
	Pct    float64 `json:"pct"`
}

// ThreadAllocStats is one thread's cumulative allocation volume.
type ThreadAllocStats struct {
	Name    string `json:"name"`
	Objects uint64 `json:"objects"`
	Words   uint64 `json:"words"`
}

// PressureStats is the mutator-side pressure snapshot exposed through
// Runtime.Pressure.
type PressureStats struct {
	// AllocRateWps is the allocation-rate EWMA in words/second (0 until one
	// inter-GC window has completed).
	AllocRateWps float64
	// Occupancy is the occupancy timeline, oldest first (bounded ring of
	// trigger-time samples).
	Occupancy []OccupancySample
	// Threads is the cumulative per-thread allocation volume, in thread
	// creation order.
	Threads []ThreadAllocStats
}

// occupancyTimelineCap bounds the retained occupancy samples; ewmaAlpha is
// the allocation-rate smoothing factor (weight of the newest window).
const (
	occupancyTimelineCap = 256
	ewmaAlpha            = 0.3
)

// pressure is the runtime's pressure tracker. Like the rest of the runtime
// it runs under the single-goroutine stop-the-world discipline, so plain
// fields need no synchronization.
type pressure struct {
	r *Runtime

	// lastNs / lastWords delimit the previous explain call's window for the
	// allocation-rate EWMA.
	lastNs    int64
	lastWords uint64
	ewmaWps   float64

	// siteNow/sitePrev are reusable per-site counter buffers for
	// dominant-site attribution (nothing is allocated once the site set is
	// stable).
	siteNow  []uint64
	sitePrev []uint64

	// timeline is a bounded ring of trigger-time occupancy samples; tlLen
	// tracks the fill, tlNext the write cursor.
	timeline [occupancyTimelineCap]OccupancySample
	tlNext   int
	tlLen    int
}

func newPressure(r *Runtime) *pressure { return &pressure{r: r} }

// GCBegin implements collector.Observer: it stamps the record's Trigger. It
// samples occupancy, rolls the allocation-rate EWMA over the window since
// the previous trigger, appends to the occupancy timeline, and names the
// dominant allocating thread (and site, with provenance) of the window.
func (p *pressure) GCBegin(col *collector.Collection) {
	r := p.r
	now := time.Now().UnixNano()
	occ := r.space.OccupancyPct()
	hs := r.space.Stats()

	if p.lastNs != 0 && now > p.lastNs {
		inst := float64(hs.WordsAllocated-p.lastWords) / (float64(now-p.lastNs) / 1e9)
		if p.ewmaWps == 0 {
			p.ewmaWps = inst
		} else {
			p.ewmaWps = ewmaAlpha*inst + (1-ewmaAlpha)*p.ewmaWps
		}
	}
	p.lastNs = now
	p.lastWords = hs.WordsAllocated

	p.timeline[p.tlNext] = OccupancySample{UnixNs: now, Pct: occ}
	p.tlNext = (p.tlNext + 1) % occupancyTimelineCap
	if p.tlLen < occupancyTimelineCap {
		p.tlLen++
	}

	tr := collector.Trigger{OccupancyPct: occ, AllocRateWps: p.ewmaWps}

	// Dominant allocating thread since the previous trigger. The per-thread
	// window snapshots live on the threads themselves.
	for _, th := range r.threads {
		d := th.allocWords - th.windowWords
		th.windowWords = th.allocWords
		if d > tr.ByThreadWords {
			tr.ByThreadWords = d
			tr.ByThread = th.name
		}
	}

	// Dominant allocating site, when provenance is recording.
	if prov := r.space.Provenance(); prov != nil {
		p.siteNow = prov.SiteAllocs(p.siteNow)
		var best uint64
		bestSite := 0
		for i, n := range p.siteNow {
			var prev uint64
			if i < len(p.sitePrev) {
				prev = p.sitePrev[i]
			}
			if d := n - prev; d > best {
				best = d
				bestSite = i
			}
		}
		if best > 0 {
			tr.BySite = prov.Name(heap.SiteID(bestSite))
		}
		p.siteNow, p.sitePrev = p.sitePrev, p.siteNow
	}

	tr.Why = why(col.Reason, occ)
	col.Trigger = tr
}

// GCEnd implements collector.Observer; the tracker's work is done in GCBegin.
func (p *pressure) GCEnd(*collector.Collection) {}

// why renders the one-line explanation for the reason, in trigger-cause
// terms rather than mechanism terms.
func why(reason collector.Reason, occ float64) string {
	switch reason {
	case collector.ReasonAllocFailure:
		return fmt.Sprintf("heap exhausted at %.0f%% occupancy", occ)
	case collector.ReasonForced:
		return "explicit Collect call"
	default:
		return fmt.Sprintf("collection requested (%s) at %.0f%% occupancy", reason, occ)
	}
}

// snapshot builds the PressureStats view.
func (p *pressure) snapshot() PressureStats {
	r := p.r
	ps := PressureStats{AllocRateWps: p.ewmaWps}
	if p.tlLen > 0 {
		ps.Occupancy = make([]OccupancySample, p.tlLen)
		start := (p.tlNext - p.tlLen + occupancyTimelineCap) % occupancyTimelineCap
		for i := 0; i < p.tlLen; i++ {
			ps.Occupancy[i] = p.timeline[(start+i)%occupancyTimelineCap]
		}
	}
	ps.Threads = make([]ThreadAllocStats, len(r.threads))
	for i, th := range r.threads {
		ps.Threads[i] = ThreadAllocStats{Name: th.name, Objects: th.allocObjects, Words: th.allocWords}
	}
	return ps
}

// Pressure returns the mutator-side pressure snapshot; ok is false when
// telemetry (which carries the pressure tracker) is off.
func (r *Runtime) Pressure() (PressureStats, bool) {
	if r.pressure == nil {
		return PressureStats{}, false
	}
	return r.pressure.snapshot(), true
}
