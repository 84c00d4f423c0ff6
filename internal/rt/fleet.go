package rt

import (
	"gcassert/internal/fleet"
	"gcassert/internal/version"
)

// initFleet wires the fleet exporter: census envelopes ship every
// FleetEvery collections, flight bundles on violation, both sealed
// under this runtime's identity and registry ref.
// Network sends happen on the exporter's own goroutine; a dead collector
// costs the GC nothing.
func (r *Runtime) initFleet(cfg Config) {
	fx := fleet.NewExporter(fleet.ExportConfig{
		URL:         cfg.FleetURL,
		Every:       cfg.FleetEvery,
		Identity:    r.identity,
		RegistryRef: fleet.RegistryRef(r.reg),
	})
	if r.census != nil {
		fx.SetCensusSource(r.census.Latest)
	}
	if r.flight != nil {
		fx.SetBundleSource(r.flight.Bundle)
	}
	r.fleetx = fx
}

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
