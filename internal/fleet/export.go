package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/flight"
	"gcassert/internal/heap"
	"gcassert/internal/heapdump"
	"gcassert/internal/version"
)

// Exporter is the instance side of fleet forensics: it observes the
// collector, seals census snapshots (and, on violation, flight bundles)
// into content-addressed envelopes, and ships them to a gcfleet collector
// over HTTP from a background sender goroutine.
//
// Concurrency: the Observer half and NoteViolation run inside stop-the-world
// collections on the runtime's goroutine; they only marshal and enqueue.
// The sender goroutine owns all network I/O, so a slow or absent collector
// never blocks a collection — the bounded queue drops oldest envelopes
// instead. ExportLatest may be called from any goroutine (the census ring is
// mutex-guarded).
type Exporter struct {
	url        string
	every      int
	queueLimit int
	identity   version.Identity
	client     *http.Client

	// registryRef keys every sealed hash: reg's RegistryRef, recomputed at
	// the start of a collection whenever the registry has grown since
	// (regTypes is its NumTypes then), so an envelope is keyed by the
	// types its collection saw. registryRef is guarded by mu, because
	// ExportLatest seals from any goroutine; reg and regTypes are read on
	// the collecting goroutine only.
	reg         *heap.Registry
	regTypes    int
	registryRef string

	censusFn func() (heapdump.Snapshot, bool)
	bundleFn func(trigger string) flight.Bundle

	// Per-cycle state, touched only inside stop-the-world collections.
	sinceExport int

	violLatch atomic.Bool
	demand    atomic.Bool

	mu    sync.Mutex
	queue [][]byte
	stats ExportStats

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// ExportStats summarizes an exporter's activity.
type ExportStats struct {
	// Enqueued counts sealed envelopes; Dropped those evicted from the full
	// queue before sending; Sent those the collector accepted; Errors
	// failed sends. LastErr is the most recent send failure.
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
	Sent     uint64 `json:"sent"`
	Errors   uint64 `json:"errors"`
	LastErr  string `json:"last_err,omitempty"`
}

// ExportConfig configures an Exporter.
type ExportConfig struct {
	// URL is the gcfleet collector base URL (envelopes POST to
	// URL + "/fleet/ingest").
	URL string
	// Every exports a census envelope every N collections (default 1:
	// every collection; the dedupe on the collector side makes steady-state
	// replicas nearly free to report).
	Every int
	// QueueLimit bounds the unsent-envelope queue (default 64; oldest
	// dropped on overflow).
	QueueLimit int
	// Identity stamps every envelope. Registry's RegistryRef, as of the
	// collection an envelope comes from, keys its hash, so types defined
	// after the exporter was created are part of it.
	Identity version.Identity
	Registry *heap.Registry
	// Client overrides the HTTP client (default: 5s timeout).
	Client *http.Client
}

// NewExporter creates an exporter and starts its sender goroutine.
func NewExporter(cfg ExportConfig) *Exporter {
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	e := &Exporter{
		url:        cfg.URL,
		every:      cfg.Every,
		queueLimit: cfg.QueueLimit,
		identity:   cfg.Identity,
		reg:        cfg.Registry,
		client:     cfg.Client,
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	e.wg.Add(1)
	go e.sender()
	return e
}

// SetCensusSource installs the census source (the census ring's Latest);
// install before the first collection.
func (e *Exporter) SetCensusSource(fn func() (heapdump.Snapshot, bool)) { e.censusFn = fn }

// SetBundleSource installs the flight-bundle source used for
// violation-triggered exports. The source may walk the managed heap, so the
// exporter only calls it inside the collector's stop-the-world pause.
func (e *Exporter) SetBundleSource(fn func(trigger string) flight.Bundle) { e.bundleFn = fn }

// Identity returns the identity stamped on exported envelopes.
func (e *Exporter) Identity() version.Identity { return e.identity }

// NoteViolation latches a violation-triggered export: at the end of the
// current collection the exporter ships the census envelope plus a flight
// bundle. The runtime tees its reporter chain into it.
func (e *Exporter) NoteViolation() { e.violLatch.Store(true) }

var _ collector.Observer = (*Exporter)(nil)

// GCBegin implements collector.Observer: bring the registry ref up to date
// with the types defined before this collection. No type can be defined
// during it, so every envelope sealed from it is keyed by that ref.
func (e *Exporter) GCBegin(*collector.Collection) {
	if e.reg == nil || e.reg.NumTypes() == e.regTypes {
		return
	}
	ref, n := RegistryRef(e.reg), e.reg.NumTypes()
	e.mu.Lock()
	e.registryRef, e.regTypes = ref, n
	e.mu.Unlock()
}

// GCEnd implements collector.Observer: decide whether this cycle exports,
// seal the envelopes, and hand them to the sender.
func (e *Exporter) GCEnd(col *collector.Collection) {
	e.sinceExport++
	trigger := ""
	switch {
	case e.violLatch.Swap(false):
		trigger = "violation"
	case e.demand.Swap(false):
		trigger = "demand"
	case e.sinceExport >= e.every:
		trigger = "interval"
	}
	if trigger == "" {
		return
	}
	e.sinceExport = 0
	now := time.Now().UnixNano()
	if e.censusFn != nil {
		if snap, ok := e.censusFn(); ok && snap.GC == col.Seq {
			e.enqueueCensus(&snap, now)
		}
	}
	if trigger == "violation" && e.bundleFn != nil {
		b := e.bundleFn("fleet-violation")
		if payload, err := json.Marshal(&b); err == nil {
			e.enqueue(KindFlight, payload, now)
		}
	}
	e.signal()
}

// ExportLatest seals the most recent census snapshot right now and queues
// it (trigger "demand"). Safe from any goroutine; used by the
// /debug/gcassert/fleet endpoint and exit-time flushes. Returns the sealed
// content hash.
func (e *Exporter) ExportLatest() (string, error) {
	if e.censusFn == nil {
		return "", fmt.Errorf("fleet: exporter has no census source")
	}
	snap, ok := e.censusFn()
	if !ok {
		return "", fmt.Errorf("fleet: no census snapshot yet (no collection has run)")
	}
	hash := e.enqueueCensus(&snap, time.Now().UnixNano())
	e.signal()
	if hash == "" {
		return "", fmt.Errorf("fleet: sealing census snapshot failed")
	}
	return hash, nil
}

// RequestExport latches a demand export delivered at the end of the next
// collection (when the census snapshot for that cycle exists). Safe from
// any goroutine.
func (e *Exporter) RequestExport() { e.demand.Store(true) }

func (e *Exporter) enqueueCensus(snap *heapdump.Snapshot, nowNs int64) string {
	payload, err := json.Marshal(snap)
	if err != nil {
		return ""
	}
	return e.enqueue(KindCensus, payload, nowNs)
}

func (e *Exporter) enqueue(kind string, payload []byte, nowNs int64) string {
	e.mu.Lock()
	ref := e.registryRef
	e.mu.Unlock()
	env, err := Seal(kind, ref, e.identity, nowNs, payload)
	if err != nil {
		return ""
	}
	wire, err := json.Marshal(&env)
	if err != nil {
		return ""
	}
	e.mu.Lock()
	e.stats.Enqueued++
	if len(e.queue) >= e.queueLimit {
		e.queue = e.queue[1:]
		e.stats.Dropped++
	}
	e.queue = append(e.queue, wire)
	e.mu.Unlock()
	return env.Hash
}

func (e *Exporter) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// sender drains the queue, POSTing each envelope; it performs a final drain
// when Close is called.
func (e *Exporter) sender() {
	defer e.wg.Done()
	for {
		select {
		case <-e.wake:
			e.drain()
		case <-e.stop:
			e.drain()
			return
		}
	}
}

func (e *Exporter) drain() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		wire := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		err := e.post(wire)
		e.mu.Lock()
		if err != nil {
			e.stats.Errors++
			e.stats.LastErr = err.Error()
		} else {
			e.stats.Sent++
		}
		e.mu.Unlock()
	}
}

func (e *Exporter) post(wire []byte) error {
	resp, err := e.client.Post(e.url+"/fleet/ingest", "application/json", bytes.NewReader(wire))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: collector returned %s", resp.Status)
	}
	return nil
}

// Stats returns the exporter's activity summary.
func (e *Exporter) Stats() ExportStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close flushes the queue and stops the sender. Idempotent-unsafe: call
// once, at shutdown.
func (e *Exporter) Close() {
	close(e.stop)
	e.wg.Wait()
}
