package rt

import (
	"gcassert/internal/core"
	"gcassert/internal/flight"
	"gcassert/internal/heapdump"
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
// flight recorder's pprof export, from an on-demand census
// (heapdump.Count). The census walks every allocated object, so it must
// only run while the heap is consistent: between collections, or inside a
// stop-the-world pause before the sweep — which covers both dump triggers
// (on-demand and on-violation). Objects allocated before provenance was
// enabled, or skipped by sampling, group under the unknown site; without
// provenance every object does, so the census's per-type rows are the
// profile.
func (r *Runtime) siteProfile() []flight.SiteSample {
	snap := heapdump.Count(r.space)
	rows := snap.Sites
	if r.space.Provenance() == nil {
		rows = make([]heapdump.SiteCensus, len(snap.Types))
		for i, t := range snap.Types {
			rows[i] = heapdump.SiteCensus{TypeName: t.TypeName, Objects: t.Objects, Words: t.Words}
		}
	}
	out := make([]flight.SiteSample, len(rows))
	for i, row := range rows {
		out[i] = flight.SiteSample{Site: row.Site, Type: row.TypeName, Objects: int64(row.Objects), Bytes: int64(row.Bytes())}
	}
	return out
}
