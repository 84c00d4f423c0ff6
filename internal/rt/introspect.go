package rt

import (
	"gcassert/internal/heapdump"
	"gcassert/internal/telemetry"
)

// censusPublisher mirrors each census snapshot into the metrics registry as
// per-type gauges, so a Prometheus scrape sees the live-heap composition
// without hitting the census endpoint. It runs inside the stop-the-world
// collection (census OnSnapshot contract) and touches only Go-heap state.
type censusPublisher struct {
	reg *telemetry.Registry
	// objects/bytes cache the gauge handles per type name; live tracks which
	// types were nonzero in the previous snapshot so types that die out are
	// zeroed rather than left frozen at their last value.
	objects map[string]*telemetry.Gauge
	bytes   map[string]*telemetry.Gauge
	live    map[string]bool
}

func (p *censusPublisher) publish(s *heapdump.Snapshot) {
	if p.objects == nil {
		p.objects = map[string]*telemetry.Gauge{}
		p.bytes = map[string]*telemetry.Gauge{}
		p.live = map[string]bool{}
	}
	p.reg.Counter("gcassert_census_snapshots_total",
		"Census snapshots recorded.").Inc()
	seen := map[string]bool{}
	for i := range s.Types {
		row := &s.Types[i]
		seen[row.TypeName] = true
		p.gaugesFor(row.TypeName)
		p.objects[row.TypeName].Set(int64(row.Objects))
		p.bytes[row.TypeName].Set(int64(row.Bytes()))
	}
	for name := range p.live {
		if !seen[name] {
			p.objects[name].Set(0)
			p.bytes[name].Set(0)
		}
	}
	p.live = seen
}

func (p *censusPublisher) gaugesFor(name string) {
	if _, ok := p.objects[name]; ok {
		return
	}
	p.objects[name] = p.reg.Gauge("gcassert_census_live_objects",
		"Live objects by type, from the most recent census.", telemetry.Label{Name: "type", Value: name})
	p.bytes[name] = p.reg.Gauge("gcassert_census_live_bytes",
		"Live payload bytes by type, from the most recent census.", telemetry.Label{Name: "type", Value: name})
}
