package rt

import (
	"encoding/json"
	"io"

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

// writeFleetStatus is the /debug/gcassert/fleet document: the exporter's
// identity and counters, plus — when export is set — the hash of a census
// envelope sealed on demand, or the reason none could be.
func (r *Runtime) writeFleetStatus(w io.Writer, export bool) error {
	fx := r.fleetx
	doc := struct {
		Instance version.Identity  `json:"instance"`
		Stats    fleet.ExportStats `json:"stats"`
		Exported string            `json:"exported_hash,omitempty"`
		Error    string            `json:"export_error,omitempty"`
	}{Instance: fx.Identity()}
	if export {
		if hash, err := fx.ExportLatest(); err != nil {
			doc.Error = err.Error()
		} else {
			doc.Exported = hash
		}
	}
	doc.Stats = fx.Stats()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
