package rt

import (
	"gcassert/internal/fleet"
	"gcassert/internal/version"
)

// Identity returns the instance identity stamped on exported artifacts
// (flight bundles, census documents, fleet envelopes).
func (r *Runtime) Identity() version.Identity { return r.identity }

// FleetExporter exposes the fleet exporter, or nil when Config.FleetURL was
// empty.
func (r *Runtime) FleetExporter() *fleet.Exporter { return r.fleetx }

// CloseFleet flushes and stops the fleet exporter's sender goroutine, if
// one is running. Call once at shutdown; the final drain ships anything
// still queued.
func (r *Runtime) CloseFleet() {
	if r.fleetx != nil {
		r.fleetx.Close()
	}
}
