// Package assertd hosts many isolated GC-assertion runtimes behind one
// HTTP/JSON service: gcassertd. Each tenant owns a full gcassert runtime —
// its own heap, collector configuration, assertion policy, and telemetry —
// and is driven over HTTP: submit a MiniJava program, drive request
// batches, stream violations and GC events, scrape per-tenant stats and
// Prometheus metrics.
//
// The isolation model is the runtime's own single-goroutine discipline
// made structural: a tenant's runtime is reachable only through its guest,
// a token parked in a one-slot channel. A handler takes the guest, runs its
// command on its own goroutine and puts the guest back, so one goroutine at
// a time touches the runtime and no goroutine exists per tenant. Tenants
// share nothing — no heap, no collector state, no tracer (the telemetry
// layer is fully instance-scoped) — so a tenant that exhausts its heap,
// halts on a violation, or burns its step budget fails its own request and
// nothing else. The only shared object is the server's metrics registry,
// where every series carries a tenant label.
package assertd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gcassert/internal/sse"
	"gcassert/internal/telemetry"
	"gcassert/internal/version"
)

// Config configures a Server.
type Config struct {
	// InstanceID names this server in fleet exports; each tenant's runtime
	// composes it as "InstanceID/tenant" (version.Identity.Sub), so tenants
	// report as distinct instances under the host's name. Empty generates a
	// host-pid-random ID per tenant runtime.
	InstanceID string
	// FleetURL, when non-empty, points every tenant's fleet exporter at a
	// gcfleet collector (census snapshots, violation forensics).
	FleetURL string
	// MaxTenants bounds concurrent tenants (default 256).
	MaxTenants int
	// MaxHeapMiB caps any single tenant's heap (default 256).
	MaxHeapMiB int
	// DefaultHeapMiB sizes tenants that don't choose (default 16).
	DefaultHeapMiB int
	// Clock overrides the server's time source (default time.Now). Tenant
	// creation stamps, violation frames and SLO window accounting all read
	// it, so tests drive window expiry with a fake clock instead of sleeps.
	Clock func() time.Time
}

// Server errors the HTTP layer maps onto status codes.
var (
	// ErrTenantNotFound reports an unknown tenant ID.
	ErrTenantNotFound = errors.New("tenant not found")
	// ErrTenantExists reports a duplicate create.
	ErrTenantExists = errors.New("tenant already exists")
	// ErrServerFull reports the MaxTenants bound.
	ErrServerFull = errors.New("tenant limit reached")
	// ErrBadTenantID reports an invalid tenant name.
	ErrBadTenantID = errors.New("invalid tenant id (want 1-64 chars of [a-zA-Z0-9._-])")
)

// Server is the multi-tenant assertion service.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	tenantsGauge *telemetry.Gauge
	created      *telemetry.Counter
	deleted      *telemetry.Counter

	// Server-wide SLO alert stream: every tenant's alert transitions fan
	// out through one hub (GET /alerts), with a bounded replay ring so a
	// subscriber attaching after a burst still sees it.
	alerts sse.Hub

	// sloShip ships SLO report envelopes to the fleet collector (nil when
	// Config.FleetURL is empty).
	sloShip *sloShipper
}

// NewServer creates a server. Close it to shut every tenant down.
func NewServer(cfg Config) *Server {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 256
	}
	if cfg.MaxHeapMiB <= 0 {
		cfg.MaxHeapMiB = 256
	}
	if cfg.DefaultHeapMiB <= 0 {
		cfg.DefaultHeapMiB = 16
	}
	if cfg.DefaultHeapMiB > cfg.MaxHeapMiB {
		cfg.DefaultHeapMiB = cfg.MaxHeapMiB
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		tenants:      make(map[string]*Tenant),
		tenantsGauge: reg.Gauge("gcassertd_tenants", "Live tenants."),
		created:      reg.Counter("gcassertd_tenants_created_total", "Tenants created."),
		deleted:      reg.Counter("gcassertd_tenants_deleted_total", "Tenants deleted."),
	}
	s.alerts.ReplayLimit = alertReplay
	s.alerts.DropMetric = reg.Counter("gcassertd_alert_dropped_frames_total",
		"Alert-stream frames dropped on slow /alerts subscribers.")
	if cfg.FleetURL != "" {
		s.sloShip = newSLOShipper(cfg.FleetURL, version.NewIdentity(cfg.InstanceID))
	}
	return s
}

// Registry exposes the server's metrics registry (every per-tenant series
// carries a tenant label; series outlive their tenant, as Prometheus
// counters should).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// validTenantID enforces names that are safe in URL paths and metric
// labels.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// CreateTenant provisions a tenant: a fresh runtime behind its guest token.
// The lock is held across construction so a duplicate create can never
// race two runtimes onto one ID.
func (s *Server) CreateTenant(id string, opts TenantOptions) (*Tenant, error) {
	if !validTenantID(id) {
		return nil, ErrBadTenantID
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerFull
	}
	if _, dup := s.tenants[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, id)
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("%w (%d)", ErrServerFull, s.cfg.MaxTenants)
	}
	t, err := newTenant(s, id, opts)
	if err != nil {
		return nil, err
	}
	s.tenants[id] = t
	s.created.Inc()
	s.tenantsGauge.Set(int64(len(s.tenants)))
	return t, nil
}

// DeleteTenant removes a tenant and shuts it down. The call returns once
// the tenant's running command has finished and its fleet exporter and SSE
// subscribers are released, so a delete-then-recreate of the same ID is
// safe.
func (s *Server) DeleteTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
		s.deleted.Inc()
		s.tenantsGauge.Set(int64(len(s.tenants)))
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrTenantNotFound, id)
	}
	t.shutdown()
	return nil
}

// Tenant looks a tenant up by ID.
func (s *Server) Tenant(id string) (*Tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	return t, ok
}

// List returns every tenant's cached stats snapshot, sorted by ID.
func (s *Server) List() []TenantStats {
	s.mu.Lock()
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = t.Stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close deletes every tenant and rejects future creates. Safe to call more
// than once.
func (s *Server) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	ts := make([]*Tenant, 0, len(s.tenants))
	for id, t := range s.tenants {
		ts = append(ts, t)
		delete(s.tenants, id)
	}
	s.tenantsGauge.Set(0)
	s.mu.Unlock()
	for _, t := range ts {
		s.deleted.Inc()
		t.shutdown()
	}
	if !wasClosed {
		s.alerts.Close()
		if s.sloShip != nil {
			s.sloShip.close()
		}
	}
}
