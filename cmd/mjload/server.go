package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gcassert/internal/loadlab"
	"gcassert/internal/slo"
)

// serverRun is the -server client mode: slam a remote gcassertd with many
// concurrent tenant sessions. Each tenant is its own open-loop session at
// the target per-tenant rate (aggregate arrival rate = tenants × rps), so a
// tenant stalled behind its running drive accumulates queue delay exactly as
// the in-process lab does — but over HTTP, against a real multi-tenant
// server.
type serverRun struct {
	url     string
	tenants int
	prefix  string
	keep    bool
	rps     float64
	n       int
	heapMiB int
	jsonOut bool
	src     string
	slo     *slo.Spec // attached to every tenant at creation when non-nil
}

// tenantName returns session i's tenant ID.
func (sr *serverRun) tenantName(i int) string {
	return fmt.Sprintf("%s-%d", sr.prefix, i)
}

// runServer provisions the tenants, drives them, reports, and (without
// -keep) deletes them. Exit codes follow the run() contract.
func runServer(sr serverRun, stdout, stderr io.Writer) int {
	dataErr := func(err error) int {
		fmt.Fprintln(stderr, "mjload:", err)
		return 1
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Provision: create each tenant, then submit the program to it.
	created := 0
	cleanup := func() {
		if sr.keep {
			return
		}
		for i := 0; i < created; i++ {
			req, err := http.NewRequest("DELETE", sr.url+"/tenants/"+sr.tenantName(i), nil)
			if err != nil {
				continue
			}
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
	defer cleanup()
	for i := 0; i < sr.tenants; i++ {
		if err := createServerTenant(client, sr, i); err != nil {
			return dataErr(err)
		}
		created++
	}

	// Drive all sessions concurrently; transport errors are recorded per
	// session, not fatal (a struggling server is the interesting case).
	drive := loadlab.NewHTTPDrive(client, sr.tenants, func(i int) string {
		return sr.url + "/tenants/" + sr.tenantName(i) + "/drive"
	})
	m, err := loadlab.RunSessions(loadlab.Options{RPS: sr.rps, Requests: sr.n, Capture: true},
		sr.tenants, drive.Op)
	if err != nil {
		return dataErr(err)
	}

	// With -slo, judge every tenant before cleanup tears it down: the
	// post-run compliance read is the whole point of declaring the SLO.
	var sloRows []tenantSLOJSON
	if sr.slo != nil {
		if sloRows, err = fetchTenantSLOs(client, sr); err != nil {
			return dataErr(err)
		}
	}

	if sr.jsonOut {
		if err := json.NewEncoder(stdout).Encode(serverSummary(sr, m, drive, sloRows)); err != nil {
			return dataErr(err)
		}
		return 0
	}
	writeServerReport(stdout, sr, m, drive, sloRows)
	return 0
}

// tenantSLOJSON is one tenant's post-run SLO judgment in the report.
type tenantSLOJSON struct {
	Tenant    string  `json:"tenant"`
	Compliant bool    `json:"compliant"`
	WorstBurn float64 `json:"worst_burn"`
	// MinBudgetRemaining is the closest-to-exhausted objective's remaining
	// error budget, 0..1.
	MinBudgetRemaining float64 `json:"min_budget_remaining"`
	Alerting           bool    `json:"alerting"` // any rule pending or firing
}

// fetchTenantSLOs reads each tenant's SLO status document after the run.
func fetchTenantSLOs(client *http.Client, sr serverRun) ([]tenantSLOJSON, error) {
	rows := make([]tenantSLOJSON, 0, sr.tenants)
	for i := 0; i < sr.tenants; i++ {
		id := sr.tenantName(i)
		resp, err := client.Get(sr.url + "/tenants/" + id + "/slo")
		if err != nil {
			return nil, err
		}
		var st slo.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading SLO status of %s: %w", id, err)
		}
		row := tenantSLOJSON{
			Tenant: id, Compliant: st.Compliant, WorstBurn: st.WorstBurn,
			MinBudgetRemaining: 1,
		}
		for _, o := range st.Objectives {
			if o.BudgetRemainingRatio < row.MinBudgetRemaining {
				row.MinBudgetRemaining = o.BudgetRemainingRatio
			}
			for _, a := range o.Alerts {
				if a.State != "ok" {
					row.Alerting = true
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// createServerTenant creates tenant i and submits the program to it.
func createServerTenant(client *http.Client, sr serverRun, i int) error {
	id := sr.tenantName(i)
	options := map[string]any{
		"heap_mib": sr.heapMiB,
	}
	if sr.slo != nil {
		options["slo"] = sr.slo
	}
	body, err := json.Marshal(map[string]any{
		"id":      id,
		"options": options,
	})
	if err != nil {
		return err
	}
	if err := post(client, sr.url+"/tenants", "application/json", body, http.StatusCreated); err != nil {
		return fmt.Errorf("creating tenant %s: %w", id, err)
	}
	if err := post(client, sr.url+"/tenants/"+id+"/program", "text/plain", []byte(sr.src), http.StatusOK); err != nil {
		return fmt.Errorf("submitting program to %s: %w", id, err)
	}
	return nil
}

// post performs one POST and demands the expected status.
func post(client *http.Client, url, contentType string, body []byte, want int) error {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// violationsPerMillion scales the violation count to the report's
// per-million-requests figure (0 when nothing ran).
func violationsPerMillion(violations, requests uint64) float64 {
	if requests == 0 {
		return 0
	}
	return float64(violations) / float64(requests) * 1e6
}

// tenantReportJSON is one tenant's row in the -json report.
type tenantReportJSON struct {
	Tenant string `json:"tenant"`
	loadlab.HTTPDriveStats
	Latency tailJSON `json:"latency"`
}

// serverSummaryJSON is the -json report of a -server run.
type serverSummaryJSON struct {
	Server               string             `json:"server"`
	Tenants              int                `json:"tenants"`
	TargetRPSPerTenant   float64            `json:"target_rps_per_tenant"`
	AchievedRPSAggregate float64            `json:"achieved_rps_aggregate"`
	Requests             uint64             `json:"requests"`
	Failures             uint64             `json:"failures"`
	Violations           uint64             `json:"violations"`
	ViolationsPerMillion float64            `json:"violations_per_million_requests"`
	TransportErrors      uint64             `json:"transport_errors"`
	Latency              tailJSON           `json:"latency"`
	Service              tailJSON           `json:"service"`
	Queue                tailJSON           `json:"queue"`
	PerTenant            []tenantReportJSON `json:"per_tenant"`
	SLO                  []tenantSLOJSON    `json:"slo,omitempty"`
}

func serverSummary(sr serverRun, m *loadlab.MultiReport, d *loadlab.HTTPDrive, sloRows []tenantSLOJSON) serverSummaryJSON {
	tot := d.Totals()
	out := serverSummaryJSON{
		Server:               sr.url,
		Tenants:              sr.tenants,
		TargetRPSPerTenant:   sr.rps,
		AchievedRPSAggregate: m.AchievedRPS(),
		Requests:             tot.Requests,
		Failures:             tot.Failures,
		Violations:           tot.Violations,
		ViolationsPerMillion: violationsPerMillion(tot.Violations, tot.Requests),
		TransportErrors:      tot.Errors,
		Latency:              tails(&m.Latency),
		Service:              tails(&m.Service),
		Queue:                tails(&m.Queue),
	}
	for i := 0; i < sr.tenants; i++ {
		out.PerTenant = append(out.PerTenant, tenantReportJSON{
			Tenant:         sr.tenantName(i),
			HTTPDriveStats: d.Stats(i),
			Latency:        tails(&m.Sessions[i].Latency),
		})
	}
	out.SLO = sloRows
	return out
}

// writeServerReport renders the text report: aggregate pacing and tails,
// the violation rate, then one row per tenant.
func writeServerReport(w io.Writer, sr serverRun, m *loadlab.MultiReport, d *loadlab.HTTPDrive, sloRows []tenantSLOJSON) {
	tot := d.Totals()
	fmt.Fprintf(w, "server:   %s, %d tenant sessions (prefix %q)\n", sr.url, sr.tenants, sr.prefix)
	fmt.Fprintf(w, "requests: %d total @ %g rps/tenant target, %.1f rps aggregate achieved\n",
		tot.Requests, sr.rps, m.AchievedRPS())
	lp50, lp99, lp999, lmax := m.Latency.Tail()
	sp50, sp99, _, _ := m.Service.Tail()
	qp50, qp99, _, _ := m.Queue.Tail()
	fmt.Fprintf(w, "latency:  p50 %-9v p99 %-9v p999 %-9v max %v\n", lp50, lp99, lp999, lmax)
	fmt.Fprintf(w, "service:  p50 %-9v p99 %v\n", sp50, sp99)
	fmt.Fprintf(w, "queue:    p50 %-9v p99 %v\n", qp50, qp99)
	fmt.Fprintf(w, "violations: %d (%.1f per million requests)\n",
		tot.Violations, violationsPerMillion(tot.Violations, tot.Requests))
	if tot.Failures > 0 {
		fmt.Fprintf(w, "guest failures: %d\n", tot.Failures)
	}
	if tot.Errors > 0 {
		fmt.Fprintf(w, "transport errors: %d (last: %s)\n", tot.Errors, tot.LastErr)
	}
	fmt.Fprintln(w, "per tenant:")
	for i := 0; i < sr.tenants; i++ {
		st := d.Stats(i)
		p50, p99, _, _ := m.Sessions[i].Latency.Tail()
		row := fmt.Sprintf("  %-12s requests=%-6d failures=%-4d violations=%-6d p50 %-9v p99 %v",
			sr.tenantName(i), st.Requests, st.Failures, st.Violations, p50, p99)
		if st.Errors > 0 {
			row += fmt.Sprintf("  transport-errors=%d", st.Errors)
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
	if len(sloRows) > 0 {
		compliant := 0
		for _, r := range sloRows {
			if r.Compliant {
				compliant++
			}
		}
		fmt.Fprintf(w, "slo: %d/%d tenants compliant\n", compliant, len(sloRows))
		for _, r := range sloRows {
			verdict := "compliant"
			if !r.Compliant {
				verdict = "NONCOMPLIANT"
			}
			if r.Alerting {
				verdict += " (alerting)"
			}
			fmt.Fprintf(w, "  %-12s %-24s worst burn %5.1fx  budget left %3.0f%%\n",
				r.Tenant, verdict, r.WorstBurn, 100*r.MinBudgetRemaining)
		}
	}
	if sr.keep {
		fmt.Fprintf(w, "tenants kept: inspect %s/tenants and %s/metrics\n", sr.url, sr.url)
	}
}
