package rt

import (
	"sort"

	"gcassert/internal/core"
	"gcassert/internal/flight"
	"gcassert/internal/heap"
)

// flightViolation converts an engine violation into the flight recorder's
// retained form: the structured fields for machine consumption plus the
// full Figure-1 report for humans.
func flightViolation(v *core.Violation) flight.ViolationRecord {
	var path []string
	for i := range v.Path {
		step := v.Path[i].TypeName
		if f := v.Path[i].Field; f != "" {
			step += "." + f
		}
		path = append(path, step)
	}
	return flight.ViolationRecord{
		GC:       v.GC,
		Kind:     v.Kind.String(),
		TypeName: v.TypeName,
		Site:     v.Site,
		Root:     v.Root,
		Path:     path,
		Report:   v.String(),
	}
}

// siteProfile groups the live heap by (allocation site, type) for the
// flight recorder's pprof export. It walks every allocated object, so it
// must only run while the heap is consistent: between collections, or
// inside a stop-the-world pause before the sweep — which covers both dump
// triggers (on-demand and on-violation). Objects allocated before
// provenance was enabled, or skipped by sampling, group under the unknown
// site.
func (r *Runtime) siteProfile() []flight.SiteSample {
	s := r.space
	reg := s.Registry()
	type key struct {
		site heap.SiteID
		typ  heap.TypeID
	}
	acc := map[key]*flight.SiteSample{}
	var order []key
	s.ForEachObject(func(a heap.Addr) bool {
		k := key{site: s.SiteOf(a), typ: s.TypeOf(a)}
		sm := acc[k]
		if sm == nil {
			sm = &flight.SiteSample{Site: s.SiteDesc(a), Type: reg.Name(k.typ)}
			acc[k] = sm
			order = append(order, k)
		}
		sm.Objects++
		sm.Bytes += int64(s.SizeWords(a)) * heap.WordBytes
		return true
	})
	out := make([]flight.SiteSample, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Type < out[j].Type
	})
	return out
}
