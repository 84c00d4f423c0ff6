package heapdump

import (
	"gcassert/internal/heap"
	"gcassert/internal/trend"
)

// Leak-suspect ranking in the style of Cork (Jump & McKinley, POPL 2007; see
// the paper's §4.2): instead of a single snapshot, watch the per-type live
// volume across collections and rank types whose footprint grows steadily.
// A type that grows in nearly every window and has a large positive slope is
// a leak suspect; a type that merely spiked once is not. The scoring itself
// lives in internal/trend, shared with the fleet-level cross-instance
// ranking so one definition of "growing" governs both views.

// Suspect is one ranked leak suspect derived from a window of snapshots.
type Suspect struct {
	// Type and TypeName identify the suspect type.
	Type     heap.TypeID `json:"type"`
	TypeName string      `json:"type_name"`
	// FirstGC/LastGC bound the analysis window (collector sequence numbers).
	FirstGC uint64 `json:"first_gc"`
	LastGC  uint64 `json:"last_gc"`
	// StartWords/EndWords and StartObjects/EndObjects are the type's live
	// payload at the window's ends.
	StartWords   uint64 `json:"start_words"`
	EndWords     uint64 `json:"end_words"`
	StartObjects uint64 `json:"start_objects"`
	EndObjects   uint64 `json:"end_objects"`
	// SlopeWordsPerGC and SlopeObjectsPerGC are least-squares growth rates
	// over the window.
	SlopeWordsPerGC   float64 `json:"slope_words_per_gc"`
	SlopeObjectsPerGC float64 `json:"slope_objects_per_gc"`
	// Growth is the fraction of adjacent snapshot pairs in which the type's
	// live words grew (1.0 = grew every single collection).
	Growth float64 `json:"growth"`
	// Score ranks suspects: slope weighted by growth consistency, in words
	// per GC. Types that shrink or oscillate score near zero.
	Score float64 `json:"score"`
	// Sites breaks the suspect down by allocation site, from the newest
	// snapshot in the window (largest footprint first, top rows only). Nil
	// when the census ran without provenance — with it, the ranking answers
	// not just "what is growing" but "who keeps allocating it".
	Sites []SiteCensus `json:"sites,omitempty"`
}

// maxSuspectSites bounds the per-suspect site breakdown.
const maxSuspectSites = 5

// SlopeBytesPerGC returns the growth rate in bytes per collection.
func (s *Suspect) SlopeBytesPerGC() float64 { return s.SlopeWordsPerGC * heap.WordBytes }

// Suspects diffs the last `window` snapshots (0 = all retained) and returns
// the top leak suspects, highest score first. At least two snapshots are
// required; fewer yields nil. top <= 0 returns all growing types.
func (c *Census) Suspects(window, top int) []Suspect {
	return RankSuspects(c.Last(window), top)
}

// RankSuspects computes leak suspects over an explicit snapshot sequence
// (oldest first). Exposed separately so offline tools can rank saved
// snapshot files without a live census.
func RankSuspects(snaps []Snapshot, top int) []Suspect {
	if len(snaps) < 2 {
		return nil
	}
	// series[t] holds one point per snapshot for every type live anywhere in
	// the window (types absent from a snapshot contribute zero — a type that
	// died out mid-window must not look like growth from its reappearance).
	type point struct{ words, objects uint64 }
	series := map[heap.TypeID][]point{}
	names := map[heap.TypeID]string{}
	for i, s := range snaps {
		for j := range s.Types {
			row := &s.Types[j]
			if _, ok := series[row.Type]; !ok {
				series[row.Type] = make([]point, len(snaps))
				names[row.Type] = row.TypeName
			}
			series[row.Type][i] = point{row.Words, row.Objects}
		}
	}
	var out []Suspect
	last := &snaps[len(snaps)-1]
	words := make([]float64, len(snaps))
	objects := make([]float64, len(snaps))
	for t, pts := range series {
		// Slope against snapshot index, not GC seq.
		for i, p := range pts {
			words[i] = float64(p.words)
			objects[i] = float64(p.objects)
		}
		fit := trend.Score(words)
		if fit.Score <= 0 {
			continue
		}
		slopeW, slopeO, growth, score := fit.Slope, trend.Slope(objects), fit.Growth, fit.Score
		var sites []SiteCensus
		for i := range last.Sites {
			if last.Sites[i].TypeName == names[t] {
				sites = append(sites, last.Sites[i])
				if len(sites) == maxSuspectSites {
					break
				}
			}
		}
		out = append(out, Suspect{
			Type:              t,
			TypeName:          names[t],
			Sites:             sites,
			FirstGC:           snaps[0].GC,
			LastGC:            snaps[len(snaps)-1].GC,
			StartWords:        pts[0].words,
			EndWords:          pts[len(pts)-1].words,
			StartObjects:      pts[0].objects,
			EndObjects:        pts[len(pts)-1].objects,
			SlopeWordsPerGC:   slopeW,
			SlopeObjectsPerGC: slopeO,
			Growth:            growth,
			Score:             score,
		})
	}
	sortSuspects(out)
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

func sortSuspects(s []Suspect) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && suspectLess(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func suspectLess(a, b *Suspect) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.TypeName < b.TypeName
}
