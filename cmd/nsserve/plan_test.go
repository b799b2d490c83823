package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// plannerTestServer seeds a graph with an AND-chain-friendly shape so
// profile=1 responses carry a non-trivial plan block.
func plannerTestServer(t *testing.T, cfg config) *httptest.Server {
	t.Helper()
	g := rdf.NewGraph()
	g.Add("a", "knows", "b")
	g.Add("b", "knows", "c")
	g.Add("a", "worksAt", "w1")
	g.Add("b", "worksAt", "w1")
	g.Add("c", "worksAt", "w2")
	ts := httptest.NewServer(newServerWith(g, cfg))
	t.Cleanup(ts.Close)
	return ts
}

// TestQueryProfilePlanBlock: profile=1 responses must expose the
// recorded plan — planner name, version, per-scan index choices —
// alongside the runtime profile.
func TestQueryProfilePlanBlock(t *testing.T) {
	ts := plannerTestServer(t, defaultConfig())
	q := url.QueryEscape("(?x knows ?y) AND (?y worksAt ?w) AND (?x worksAt ?v)")
	resp, body := get(t, ts, "/query?syntax=paper&profile=1&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Plan *struct {
			Planner   string `json:"planner"`
			Version   int    `json:"version"`
			Probes    int    `json:"probes"`
			Adaptive  bool   `json:"adaptive"`
			JoinOrder []struct {
				Pattern string  `json:"pattern"`
				Index   string  `json:"index"`
				Est     float64 `json:"est"`
			} `json:"join_order"`
		} `json:"plan"`
		Profile json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Plan == nil {
		t.Fatalf("profile=1 response has no plan block:\n%s", body)
	}
	if doc.Plan.Planner != "dp" || doc.Plan.Version != 2 {
		t.Fatalf("plan = %+v, want planner=dp version=2", doc.Plan)
	}
	if len(doc.Plan.JoinOrder) != 3 {
		t.Fatalf("join_order has %d scans, want 3: %+v", len(doc.Plan.JoinOrder), doc.Plan)
	}
	if !doc.Plan.Adaptive {
		t.Fatalf("3-pattern chain under the default planner should arm adaptive: %+v", doc.Plan)
	}
	for _, s := range doc.Plan.JoinOrder {
		if s.Index != "SPO" && s.Index != "POS" && s.Index != "OSP" {
			t.Fatalf("bad index choice %q", s.Index)
		}
	}
	if len(doc.Profile) == 0 {
		t.Fatal("profile=1 response lost the runtime profile")
	}
	// Without profile=1, no plan block.
	_, plain := get(t, ts, "/query?syntax=paper&q="+q)
	if strings.Contains(plain, `"plan"`) {
		t.Fatalf("plan block leaked into unprofiled response:\n%s", plain)
	}
}

// TestMetricsPlannerReplans: /metrics always carries the
// planner_replans counter (zero included, so dashboards can rate() it
// from the first scrape).
func TestMetricsPlannerReplans(t *testing.T) {
	ts := plannerTestServer(t, defaultConfig())
	_, body := get(t, ts, "/metrics")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if _, ok := doc["planner_replans"]; !ok {
		t.Fatalf("/metrics missing planner_replans:\n%s", body)
	}
}
