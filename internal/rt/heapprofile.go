package rt

import (
	"fmt"
	"io"

	"gcassert/internal/heap"
	"gcassert/internal/heapdump"
)

// TypeProfile is the live-heap footprint of one type.
type TypeProfile struct {
	// Type and TypeName identify the type.
	Type     heap.TypeID
	TypeName string
	// Objects is the number of live instances; Words their total payload
	// size in heap words (headers included).
	Objects int
	Words   int
}

// HeapProfile returns the live-object histogram by type, largest footprint
// first — the introspection view a leak hunter starts from before placing
// assertions. Its rows are an on-demand census (heapdump.Count), so they
// count every allocated object.
//
// It must be called from mutator context (never from a Reporter).
func (r *Runtime) HeapProfile() []TypeProfile {
	rows := heapdump.Count(r.space).Types
	out := make([]TypeProfile, len(rows))
	for i, row := range rows {
		out[i] = TypeProfile{Type: row.Type, TypeName: row.TypeName, Objects: int(row.Objects), Words: int(row.Words)}
	}
	return out
}

// WriteHeapProfile formats the profile as a table. top limits the number of
// rows (0 = all).
func (r *Runtime) WriteHeapProfile(w io.Writer, top int) error {
	profile := r.HeapProfile()
	totalObjs, totalWords := 0, 0
	for _, p := range profile {
		totalObjs += p.Objects
		totalWords += p.Words
	}
	if top > 0 && len(profile) > top {
		profile = profile[:top]
	}
	if _, err := fmt.Fprintf(w, "%-44s %10s %12s %8s\n", "type", "objects", "bytes", "%"); err != nil {
		return err
	}
	for _, p := range profile {
		pct := 0.0
		if totalWords > 0 {
			pct = 100 * float64(p.Words) / float64(totalWords)
		}
		if _, err := fmt.Fprintf(w, "%-44s %10d %12d %7.1f%%\n",
			p.TypeName, p.Objects, p.Words*heap.WordBytes, pct); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-44s %10d %12d\n", "total", totalObjs, totalWords*heap.WordBytes)
	return err
}
