package rt

import (
	"fmt"
	"io"
	"sort"

	"gcassert/internal/heap"
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

// HeapProfile walks the heap and returns the live-object histogram by type,
// largest footprint first — the introspection view a leak hunter starts
// from before placing assertions.
//
// It must be called from mutator context (never from a Reporter).
func (r *Runtime) HeapProfile() []TypeProfile {
	space := r.space
	reg := r.reg
	byType := map[heap.TypeID]*TypeProfile{}
	space.ForEachObject(func(a heap.Addr) bool {
		t := space.TypeOf(a)
		p := byType[t]
		if p == nil {
			p = &TypeProfile{Type: t, TypeName: reg.Name(t)}
			byType[t] = p
		}
		p.Objects++
		p.Words += space.SizeWords(a)
		return true
	})
	out := make([]TypeProfile, 0, len(byType))
	for _, p := range byType {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Words != out[j].Words {
			return out[i].Words > out[j].Words
		}
		return out[i].TypeName < out[j].TypeName
	})
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
