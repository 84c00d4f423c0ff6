package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"gcassert/internal/version"
)

// RunSchemaVersion is the current BENCH_run document schema. Version 2
// introduced per-trial arrays (the raw material for significance testing),
// the runner stamp, and base/census interleaving; the unversioned seed
// format (implicitly version 0-1) carried only cross-trial means, which is
// why it could report a negative census overhead: all base trials ran before
// all census trials, so any machine drift between the two blocks landed in
// the delta.
const RunSchemaVersion = 2

// RunnerMeta records who produced a run. Absolute times are only comparable
// between runs whose fingerprints match; overhead *ratios* are comparable
// across machines because both sides of each ratio ran interleaved on the
// same hardware within the same trial.
type RunnerMeta struct {
	Host      string `json:"host"`
	CPUs      int    `json:"cpus"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

// CurrentRunner describes this process's machine and build.
func CurrentRunner() RunnerMeta {
	host, _ := os.Hostname()
	b := version.CurrentBuild()
	return RunnerMeta{
		Host: host, CPUs: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoVersion: b.GoVersion, Commit: b.VCSRevision, Dirty: b.Dirty,
	}
}

// Fingerprint identifies the measurement environment (not the commit): two
// runs with equal fingerprints may be compared in absolute nanoseconds.
func (r RunnerMeta) Fingerprint() string {
	return fmt.Sprintf("%s/%d-cpu/%s-%s/%s", r.Host, r.CPUs, r.GOOS, r.GOARCH, r.GoVersion)
}

// WorkloadRun is one workload's measurements: the per-trial raw arrays plus
// the robust summaries derived from them.
type WorkloadRun struct {
	Name string `json:"name"`
	// BaseTrialsNs and CensusTrialsNs are measured-iteration times per
	// trial; trial i of both configurations ran back-to-back (A/B within
	// the trial), so the arrays are paired.
	BaseTrialsNs   []int64 `json:"base_trials_ns"`
	CensusTrialsNs []int64 `json:"census_trials_ns"`
	// OverheadTrialsPct is the paired per-trial overhead,
	// 100*(census/base − 1) — machine-independent, the regression gate's
	// primary signal.
	OverheadTrialsPct []float64 `json:"overhead_trials_pct"`
	// Medians and IQR/median spreads of the arrays above.
	BaseMedianNs      int64   `json:"base_median_ns"`
	CensusMedianNs    int64   `json:"census_median_ns"`
	CensusOverheadPct float64 `json:"census_overhead_pct"`
	BaseSpreadPct     float64 `json:"base_spread_pct"`
	CensusSpreadPct   float64 `json:"census_spread_pct"`
	// Pause percentiles from the final census trial's telemetry.
	PauseP50Ns  int64  `json:"pause_p50_ns"`
	PauseP99Ns  int64  `json:"pause_p99_ns"`
	PauseP999Ns int64  `json:"pause_p999_ns"`
	PauseMaxNs  int64  `json:"pause_max_ns"`
	Collections uint64 `json:"collections"`
	// CensusLiveWords cross-checks the census against the collector's
	// live-words accounting at the same instant.
	CensusLiveWords uint64 `json:"census_live_words"`
	LiveWordsMatch  bool   `json:"live_words_match"`
}

// AssertCostRun is the cost-attribution profile of one assertion-enabled
// workload run.
type AssertCostRun struct {
	Name    string          `json:"name"`
	TotalGC int64           `json:"total_gc_ns"`
	Kinds   []CostKindPoint `json:"kinds"`
}

// CostKindPoint is one assertion kind's cumulative cost.
type CostKindPoint struct {
	Kind   string  `json:"kind"`
	Checks uint64  `json:"checks"`
	Ns     int64   `json:"ns"`
	PctGC  float64 `json:"pct_of_gc"`
}

// AllocRateRun is the mutator-pressure profile of the same run.
type AllocRateRun struct {
	Name              string  `json:"name"`
	AllocRateWps      float64 `json:"alloc_rate_wps"`
	OccupancySamples  int     `json:"occupancy_samples"`
	FinalOccupancyPct float64 `json:"final_occupancy_pct"`
	Threads           int     `json:"threads"`
}

// ServiceRun is one mjload -server run against a live gcassertd: the
// service-level throughput, latency-tail and SLO-compliance record. It is
// an additive schema-2 section — documents without it (and readers that
// predate it) are unaffected.
type ServiceRun struct {
	Name                 string  `json:"name"`
	Server               string  `json:"server"`
	Tenants              int     `json:"tenants"`
	TargetRPSPerTenant   float64 `json:"target_rps_per_tenant"`
	AchievedRPSAggregate float64 `json:"achieved_rps_aggregate"`
	Requests             uint64  `json:"requests"`
	Failures             uint64  `json:"failures"`
	Violations           uint64  `json:"violations"`
	ViolationsPerMillion float64 `json:"violations_per_million_requests"`
	LatencyP50Ns         int64   `json:"latency_p50_ns"`
	LatencyP99Ns         int64   `json:"latency_p99_ns"`
	LatencyP999Ns        int64   `json:"latency_p999_ns"`
	LatencyMaxNs         int64   `json:"latency_max_ns"`
	// SLO fields are present only when the run declared an SLO (-slo):
	// how many tenants ended compliant and the worst fast-burn observed.
	SLOTenants          int     `json:"slo_tenants,omitempty"`
	SLOTenantsCompliant int     `json:"slo_tenants_compliant,omitempty"`
	SLOWorstBurn        float64 `json:"slo_worst_burn,omitempty"`
	SLOWorstTenant      string  `json:"slo_worst_tenant,omitempty"`
}

// RunDoc is the versioned machine-readable benchmark run: the trajectory
// pipeline's unit of archival and comparison.
type RunDoc struct {
	SchemaVersion int        `json:"schema_version"`
	GeneratedUnix int64      `json:"generated_unix"`
	Trials        int        `json:"trials"`
	Iterations    int        `json:"iterations"`
	Runner        RunnerMeta `json:"runner"`

	Workloads  []WorkloadRun   `json:"workloads"`
	AssertCost []AssertCostRun `json:"assert_cost,omitempty"`
	AllocRate  []AllocRateRun  `json:"alloc_rate,omitempty"`
	Service    []ServiceRun    `json:"service,omitempty"`
}

// Workload returns the named workload's record, or nil.
func (d *RunDoc) Workload(name string) *WorkloadRun {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

// Validate checks the document's schema version and internal consistency.
func (d *RunDoc) Validate() error {
	if d.SchemaVersion != RunSchemaVersion {
		return fmt.Errorf("bench: run document has schema_version %d, this build reads %d — regenerate with `gcassert-bench -baseline`",
			d.SchemaVersion, RunSchemaVersion)
	}
	for _, w := range d.Workloads {
		if len(w.BaseTrialsNs) != len(w.CensusTrialsNs) || len(w.BaseTrialsNs) != len(w.OverheadTrialsPct) {
			return fmt.Errorf("bench: workload %s has unpaired trial arrays (%d base, %d census, %d overhead)",
				w.Name, len(w.BaseTrialsNs), len(w.CensusTrialsNs), len(w.OverheadTrialsPct))
		}
		if len(w.BaseTrialsNs) == 0 {
			return fmt.Errorf("bench: workload %s has no trials", w.Name)
		}
	}
	return nil
}

// WriteJSON renders the document, indented for diff-friendly archival.
func (d *RunDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadRunDoc loads and validates a run document from a file.
func ReadRunDoc(path string) (*RunDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d RunDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
