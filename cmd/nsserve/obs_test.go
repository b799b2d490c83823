package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fetchMetrics GETs /metrics and decodes the snapshot.
func fetchMetrics(t *testing.T, ts *httptest.Server) obs.MetricsSnapshot {
	t.Helper()
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, body %s", resp.StatusCode, body)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics body not a snapshot: %v\n%s", err, body)
	}
	return snap
}

// TestMetricsEndpoint: the counters on /metrics account every
// instrumented request by status code, and the per-endpoint latency
// histograms see exactly the requests of their endpoint.
func TestMetricsEndpoint(t *testing.T) {
	ts := governedTestServer(t, chainGraph(10), nil)

	cheap := "/query?q=" + url.QueryEscape("ASK { x0 p x1 }")
	for i := 0; i < 3; i++ {
		if resp, body := get(t, ts, cheap); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := get(t, ts, "/query?q="+url.QueryEscape("SELECT nope")); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("parse error did not 400")
	}
	resp, err := http.Post(ts.URL+"/insert", "text/plain", strings.NewReader("a b c .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, body := get(t, ts, "/stats"); !strings.Contains(body, "triples") {
		t.Fatalf("stats = %s", body)
	}

	snap := fetchMetrics(t, ts)
	if snap.Requests["200"] != 5 { // 3 queries + insert + stats
		t.Errorf("requests[200] = %d, want 5", snap.Requests["200"])
	}
	if snap.Requests["400"] != 1 {
		t.Errorf("requests[400] = %d, want 1", snap.Requests["400"])
	}
	if snap.Requests["503"] != 0 || snap.Requests["504"] != 0 {
		t.Errorf("governed statuses nonzero on a healthy run: %v", snap.Requests)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after all requests finished", snap.InFlight)
	}
	if snap.GovernorTrips != 0 || snap.Panics != 0 {
		t.Errorf("trips=%d panics=%d on a healthy run", snap.GovernorTrips, snap.Panics)
	}
	if got := snap.Latency["query"].Count; got != 4 {
		t.Errorf("latency[query].count = %d, want 4 (3 OK + 1 parse error)", got)
	}
	if got := snap.Latency["insert"].Count; got != 1 {
		t.Errorf("latency[insert].count = %d, want 1", got)
	}
	var bucketSum int64
	for _, b := range snap.Latency["query"].Buckets {
		bucketSum += b.Count
	}
	if bucketSum != snap.Latency["query"].Count {
		t.Errorf("query latency buckets sum to %d, count is %d", bucketSum, snap.Latency["query"].Count)
	}
}

// TestGovernorTripCountsExactlyOnce: under concurrent load of
// budget-tripping and deadline-tripping queries, the governor-trip
// counter ends exactly equal to the number of failed queries — one
// trip per query, no double counting across the engine's workers.
func TestGovernorTripCountsExactlyOnce(t *testing.T) {
	ts := governedTestServer(t, chainGraph(300), func(c *config) { c.MaxSteps = 10_000 })

	const budgetTrips = 6
	var wg sync.WaitGroup
	errs := make(chan string, budgetTrips)
	for i := 0; i < budgetTrips; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, ts, "/query?q="+url.QueryEscape(expensiveAskQuery))
			if resp.StatusCode != http.StatusServiceUnavailable {
				errs <- fmt.Sprintf("status %d, want 503; body %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	snap := fetchMetrics(t, ts)
	if snap.GovernorTrips != budgetTrips {
		t.Fatalf("governor_trips = %d after %d tripped queries", snap.GovernorTrips, budgetTrips)
	}
	if snap.Requests["503"] != budgetTrips {
		t.Fatalf("requests[503] = %d, want %d", snap.Requests["503"], budgetTrips)
	}

	if snap.InFlight != 0 {
		t.Fatalf("in_flight = %d after the load drained", snap.InFlight)
	}

	// A deadline trip counts exactly once too — on a server without a
	// step budget, so the deadline is the limit that fires.
	ts2 := governedTestServer(t, chainGraph(2000), nil)
	resp, _ := get(t, ts2, "/query?syntax=paper&timeout=30ms&q="+url.QueryEscape(expensiveNSQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d, want 504", resp.StatusCode)
	}
	snap = fetchMetrics(t, ts2)
	if snap.GovernorTrips != 1 {
		t.Fatalf("governor_trips = %d after one deadline trip, want 1", snap.GovernorTrips)
	}
	if snap.Requests["504"] != 1 {
		t.Fatalf("requests[504] = %d, want 1", snap.Requests["504"])
	}
}

// TestPoolSaturationCounter: with a one-token worker pool (parallel=2)
// and the parallel gates forced open, a doubly nested join exhausts the
// pool — the root fan-out takes the only token, the nested fan-out
// falls back inline — and the pool-saturation counter increments
// exactly once per such query.
func TestPoolSaturationCounter(t *testing.T) {
	ts := governedTestServer(t, chainGraph(50), func(c *config) {
		c.Parallel = 2
		c.MinParallelEstimate = -1
		c.MinPartition = 1
	})
	q := "/query?syntax=paper&q=" + url.QueryEscape(
		"((?a p ?b) AND (?b p ?c)) AND ((?c p ?d) AND (?d p ?e))")
	for i := 1; i <= 3; i++ {
		if resp, body := get(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
		snap := fetchMetrics(t, ts)
		if snap.PoolSaturations != int64(i) {
			t.Fatalf("pool_saturations = %d after %d starved queries", snap.PoolSaturations, i)
		}
	}
}

// profileDoc is the subset of the query response the profile tests
// decode.
type profileDoc struct {
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Profile *obs.Profile `json:"profile"`
}

// TestQueryProfileBlock: profile=1 attaches the execution profile to
// SELECT and ASK responses; without it the field is absent.  The root
// rows_out must equal the result cardinality, and an NS query's
// profile must carry the candidate/survivor counts.
func TestQueryProfileBlock(t *testing.T) {
	ts := governedTestServer(t, chainGraph(10), nil)
	sel := url.QueryEscape("SELECT ?x ?y WHERE { ?x p ?y }")

	_, body := get(t, ts, "/query?profile=1&q="+sel)
	var doc profileDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Profile == nil {
		t.Fatalf("profile=1 response has no profile block:\n%s", body)
	}
	if doc.Profile.Op != "query" {
		t.Errorf("profile root op = %q, want query", doc.Profile.Op)
	}
	if doc.Profile.RowsOut != int64(len(doc.Results.Bindings)) {
		t.Errorf("profile rows_out = %d, bindings = %d", doc.Profile.RowsOut, len(doc.Results.Bindings))
	}
	if len(doc.Profile.Children) == 0 {
		t.Error("profile has no operator children")
	}
	if doc.Profile.Detail == "" {
		t.Error("profile root carries no query ID")
	}

	_, body = get(t, ts, "/query?q="+sel)
	if strings.Contains(body, `"profile"`) {
		t.Fatalf("profile block leaked without profile=1:\n%s", body)
	}

	// NS counters surface in the profile.
	_, body = get(t, ts, "/query?profile=1&syntax=paper&q="+url.QueryEscape("NS((?x p ?y) OPT (?y p ?z))"))
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad NS JSON: %v\n%s", err, body)
	}
	ns := doc.Profile.Find("ns")
	if ns == nil {
		t.Fatalf("no ns node in profile:\n%s", body)
	}
	if ns.NSCandidates == 0 || ns.NSSurvivors == 0 || ns.NSCandidates < ns.NSSurvivors {
		t.Errorf("ns counters candidates=%d survivors=%d", ns.NSCandidates, ns.NSSurvivors)
	}

	// ASK carries the block too.
	_, body = get(t, ts, "/query?profile=1&q="+url.QueryEscape("ASK { x0 p x1 }"))
	var ask struct {
		Boolean bool         `json:"boolean"`
		Profile *obs.Profile `json:"profile"`
	}
	if err := json.Unmarshal([]byte(body), &ask); err != nil {
		t.Fatalf("bad ASK JSON: %v\n%s", err, body)
	}
	if !ask.Boolean || ask.Profile == nil || ask.Profile.Op != "query" {
		t.Fatalf("ASK profile response: %s", body)
	}
}

// TestMetricsUnderConcurrentLoad hammers the server with a mixed
// workload while concurrently polling /metrics, then checks the final
// counters add up exactly.  With -race this also proves the metrics
// path is race-clean under real handler concurrency.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	ts := governedTestServer(t, chainGraph(20), nil)
	const workers, perWorker = 8, 20
	ok := url.QueryEscape("ASK { x0 p x1 }")
	bad := url.QueryEscape("SELECT nope")

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() { // metrics poller racing the load
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fetchMetrics(t, ts)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if (w+i)%4 == 3 {
					get(t, ts, "/query?q="+bad)
				} else {
					get(t, ts, "/query?q="+ok)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	poller.Wait()

	// perWorker is a multiple of 4, so each worker sends exactly
	// perWorker/4 malformed queries regardless of its offset.
	snap := fetchMetrics(t, ts)
	wantBad := int64(workers * perWorker / 4)
	wantOK := int64(workers*perWorker) - wantBad
	if snap.Requests["200"] != wantOK {
		t.Errorf("requests[200] = %d, want %d", snap.Requests["200"], wantOK)
	}
	if snap.Requests["400"] != wantBad {
		t.Errorf("requests[400] = %d, want %d", snap.Requests["400"], wantBad)
	}
	if got := snap.Latency["query"].Count; got != int64(workers*perWorker) {
		t.Errorf("latency[query].count = %d, want %d", got, workers*perWorker)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after the load drained", snap.InFlight)
	}
}
