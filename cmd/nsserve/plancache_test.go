package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// cacheTestServer spins up a server with a given plan-cache capacity
// over a small fixed graph.
func cacheTestServer(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	g := rdf.FromTriples(
		rdf.T("juan", "was_born_in", "chile"),
		rdf.T("ana", "was_born_in", "chile"),
	)
	return governedTestServer(t, g, func(c *config) { c.PlanCache = capacity })
}

func queryOK(t *testing.T, ts *httptest.Server, q string) string {
	t.Helper()
	resp, body := get(t, ts, "/query?q="+url.QueryEscape(q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d, body %s", q, resp.StatusCode, body)
	}
	return body
}

// TestPlanCacheHitMissCounters: a repeated query hits the cache, the
// /metrics plan_cache block accounts for it, and the cached plan
// produces the same answers as the fresh one.
func TestPlanCacheHitMissCounters(t *testing.T) {
	ts := cacheTestServer(t, 16)
	const q = "SELECT ?x WHERE { ?x was_born_in chile }"
	first := queryOK(t, ts, q)
	second := queryOK(t, ts, q)
	if first != second {
		t.Fatalf("cached plan changed the answer:\nfirst: %s\nsecond:%s", first, second)
	}
	pc := fetchMetrics(t, ts).PlanCache
	if pc == nil {
		t.Fatal("/metrics has no plan_cache block with the cache enabled")
	}
	if pc.Misses < 1 || pc.Hits < 1 {
		t.Fatalf("plan cache counters: %+v, want >=1 miss and >=1 hit", pc)
	}
	if pc.Size != 1 || pc.Capacity != 16 {
		t.Fatalf("plan cache size/capacity: %+v", pc)
	}
	// Same text under the other syntax is a distinct key.
	resp, _ := get(t, ts, "/query?syntax=paper&q="+url.QueryEscape("(?x was_born_in chile)"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paper-syntax query failed: %d", resp.StatusCode)
	}
	if pc2 := fetchMetrics(t, ts).PlanCache; pc2.Size != 2 {
		t.Fatalf("paper-syntax query did not get its own entry: %+v", pc2)
	}
}

func insertOK(t *testing.T, ts *httptest.Server, triples string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/insert", "text/plain", strings.NewReader(triples))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
}

// TestPlanCacheSurvivesInsert: an insert moves the graph epoch but not
// the cache key.  After a small insert the same query text is a hit
// and sees the new triple; after an insert that takes a leaf count out
// of the re-plan band (2 → 20) it is a refresh — one miss, no hit —
// and the profile's plan block and the trace's plan span show it.
func TestPlanCacheSurvivesInsert(t *testing.T) {
	g := rdf.FromTriples(
		rdf.T("juan", "was_born_in", "chile"),
		rdf.T("ana", "was_born_in", "chile"),
	)
	ts := governedTestServer(t, g, func(c *config) {
		c.PlanCache = 16
		c.TraceSample = 1
	})
	const q = "SELECT ?x WHERE { ?x was_born_in chile }"
	if body := queryOK(t, ts, q); strings.Contains(body, "maria") {
		t.Fatalf("maria before insert: %s", body)
	}
	before := fetchMetrics(t, ts)

	insertOK(t, ts, "maria was_born_in chile .\n")
	if body := queryOK(t, ts, q); !strings.Contains(body, "maria") {
		t.Fatalf("stale answers served after insert: %s", body)
	}
	small := fetchMetrics(t, ts)
	if small.Store.Epoch <= before.Store.Epoch {
		t.Fatalf("store epoch did not advance on insert: %d -> %d", before.Store.Epoch, small.Store.Epoch)
	}
	if pc, pc0 := small.PlanCache, before.PlanCache; pc.Hits != pc0.Hits+1 || pc.Misses != pc0.Misses || pc.Refreshes != 0 {
		t.Fatalf("query after a small insert: cache %+v -> %+v, want exactly one more hit", pc0, pc)
	}

	var batch strings.Builder
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&batch, "p%d was_born_in chile .\n", i)
	}
	insertOK(t, ts, batch.String())
	resp, body := get(t, ts, "/query?profile=1&q="+url.QueryEscape(q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc jsonResults
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if n := len(doc.Results.Bindings); n != 20 {
		t.Fatalf("%d answers after the second insert, want 20", n)
	}
	if doc.Plan == nil || len(doc.Plan.JoinOrder) != 1 || doc.Plan.JoinOrder[0].Est != 20 {
		t.Fatalf("refreshed plan does not carry the new count 20: %+v", doc.Plan)
	}
	_, trace := get(t, ts, "/debug/traces?id="+resp.Header.Get(obs.HeaderTraceID))
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(trace), &snap); err != nil {
		t.Fatalf("decoding trace: %v\n%s", err, trace)
	}
	var verdict any
	for _, sp := range snap.Spans {
		if sp.Name == "plan" {
			verdict = sp.Attrs["cache"]
		}
	}
	if verdict != "refresh" {
		t.Fatalf("plan span of the drifting query records cache=%v, want refresh:\n%s", verdict, trace)
	}
	drift := fetchMetrics(t, ts)
	if pc, pc0 := drift.PlanCache, small.PlanCache; pc.Hits != pc0.Hits || pc.Misses != pc0.Misses+1 || pc.Refreshes != 1 {
		t.Fatalf("query after a drifting insert: cache %+v -> %+v, want one miss that is a refresh", pc0, pc)
	}
	if drift.PlanCache.Size != 1 {
		t.Fatalf("the refresh added an entry instead of replacing it: %+v", drift.PlanCache)
	}
	queryOK(t, ts, q)
	if pc := fetchMetrics(t, ts).PlanCache; pc.Hits != drift.PlanCache.Hits+1 {
		t.Fatalf("the refreshed plan is not served from the cache: %+v", pc)
	}
}

// TestPlanCacheReadersDuringCommit is the reader-during-commit
// linearizability check: readers share cached plans — hit, revalidated
// and refreshed ones — while a writer streams insert batches, and
// every answer must equal the reference answer on the graph after some
// prefix of the batches, a prefix no earlier than the one the same
// reader's previous answer saw.
func TestPlanCacheReadersDuringCommit(t *testing.T) {
	base := "x0 p x1 .\nx1 p x2 .\nx2 p x3 .\nx3 p x4 .\nx1 q y1 .\nx2 q y2 .\n"
	var batches []string
	for i := 0; i < 12; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "x%d q y%d .\nx%d q z%d .\n", i%5, i+10, (i+2)%5, i)
		if i%3 == 0 {
			fmt.Fprintf(&b, "x%d p x%d .\ny%d r w%d .\n", i+4, i+5, i+10, i)
		}
		batches = append(batches, b.String())
	}
	queries := []string{
		"(?x p ?y)",
		"(?x p ?y) AND (?y q ?z)",
		"(?x p ?y) AND (?y p ?z) AND (?z q ?w)",
		"(?x q ?y) OPT (?y r ?z)",
		"NS((?x p ?y) UNION ((?x p ?y) AND (?y q ?z) AND (?z r ?w)))",
	}
	// want[k][i] is query i's answer after the first k batches.
	want := make([][]string, len(batches)+1)
	ref := rdf.NewGraph()
	for k := 0; k <= len(batches); k++ {
		text := base
		if k > 0 {
			text = batches[k-1]
		}
		delta, err := rdf.ReadGraph(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		ref.AddAll(delta)
		for _, q := range queries {
			want[k] = append(want[k], canonicalAnswer(rowsToJSON(sparql.Eval(ref, parser.MustParsePattern(q)))))
		}
	}

	g, err := rdf.ReadGraph(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	g.SetCompactionThreshold(3)
	s := quietServer(g, nil)
	for _, q := range queries { // cache every plan before the writer starts
		if rec := serveQuery(s, q); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q, rec.Code)
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := 0 // the earliest prefix this reader may still observe
			for round := 0; !done.Load() || round < 3; round++ {
				for i := range queries {
					q := queries[(i+r)%len(queries)]
					rec := serveQuery(s, q)
					if rec.Code != http.StatusOK {
						t.Errorf("reader %d, %s: status %d", r, q, rec.Code)
						return
					}
					var doc jsonResults
					if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
						t.Errorf("reader %d, %s: %v", r, q, err)
						return
					}
					got := canonicalAnswer(doc)
					k := seen
					for k < len(want) && want[k][(i+r)%len(queries)] != got {
						k++
					}
					if k == len(want) {
						t.Errorf("reader %d, %s: answer matches no prefix of the batches at or after %d:\n%s", r, q, seen, got)
						return
					}
					seen = k
				}
			}
		}(r)
	}
	for _, b := range batches {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
		}
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
	pc := s.Snapshot().PlanCache
	if pc.Refreshes == 0 || pc.Hits == 0 || pc.Size != int64(len(queries)) {
		t.Fatalf("the batches never exercised both revalidation outcomes: %+v", pc)
	}
	t.Logf("plan cache after the run: %+v", pc)
}

// canonicalAnswer renders a results document as its sorted rows, one
// row a line — a multiset, so a row served twice does not compare equal
// to the reference set.
func canonicalAnswer(doc jsonResults) string {
	rows := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		cells := make([]string, 0, len(b))
		for v, term := range b {
			cells = append(cells, v+"="+term.Value)
		}
		sort.Strings(cells)
		rows = append(rows, strings.Join(cells, " "))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestPlanCacheEviction: with capacity 2, a third distinct query evicts
// the least recently used entry.
func TestPlanCacheEviction(t *testing.T) {
	ts := cacheTestServer(t, 2)
	for i := 0; i < 3; i++ {
		queryOK(t, ts, fmt.Sprintf("SELECT ?x%d WHERE { ?x%d was_born_in chile }", i, i))
	}
	pc := fetchMetrics(t, ts).PlanCache
	if pc.Evictions < 1 {
		t.Fatalf("no evictions at capacity 2 after 3 distinct queries: %+v", pc)
	}
	if pc.Size > 2 {
		t.Fatalf("cache size %d exceeds capacity 2", pc.Size)
	}
}

// TestPlanCacheDisabled: -plan-cache 0 serves queries uncached and
// omits the plan_cache block from /metrics.
func TestPlanCacheDisabled(t *testing.T) {
	ts := cacheTestServer(t, 0)
	const q = "SELECT ?x WHERE { ?x was_born_in chile }"
	a := queryOK(t, ts, q)
	b := queryOK(t, ts, q)
	if a != b {
		t.Fatalf("uncached answers differ:\n%s\n%s", a, b)
	}
	if pc := fetchMetrics(t, ts).PlanCache; pc != nil {
		t.Fatalf("/metrics reports a plan_cache block with the cache disabled: %+v", pc)
	}
}

// TestPlanCacheParseErrorsNotCached: malformed queries 400 every time
// and never occupy a cache slot.
func TestPlanCacheParseErrorsNotCached(t *testing.T) {
	ts := cacheTestServer(t, 16)
	for i := 0; i < 2; i++ {
		resp, _ := get(t, ts, "/query?q="+url.QueryEscape("SELECT WHERE {{{"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	pc := fetchMetrics(t, ts).PlanCache
	if pc.Size != 0 {
		t.Fatalf("parse failures were cached: %+v", pc)
	}
	if pc.Misses < 2 {
		t.Fatalf("expected >=2 misses from repeated parse failures: %+v", pc)
	}
}

// TestPlanCacheGovernorTrip: a governor-tripped query still flows
// through the cache — the plan is cached at parse time, the second
// attempt is a cache hit, and both trip the step budget identically.
func TestPlanCacheGovernorTrip(t *testing.T) {
	g := chainGraph(300)
	ts := governedTestServer(t, g, func(c *config) {
		c.PlanCache = 16
		c.MaxSteps = 10
	})
	q := "SELECT ?a ?b WHERE { ?a p ?b . ?b p ?c . ?c p ?d }"
	for i := 0; i < 2; i++ {
		resp, body := get(t, ts, "/query?q="+url.QueryEscape(q))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: status %d (want 503), body %s", i, resp.StatusCode, body)
		}
	}
	pc := fetchMetrics(t, ts).PlanCache
	if pc.Hits < 1 {
		t.Fatalf("tripped query did not hit the cached plan on retry: %+v", pc)
	}
}
