package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// coordMetrics fetches and decodes the coordinator's /metrics.
func coordMetrics(t *testing.T, base string) obs.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// coordInsert posts N-Triples text through the coordinator.
func coordInsert(t *testing.T, base, triples string) {
	t.Helper()
	resp, err := http.Post(base+"/insert", "text/plain", strings.NewReader(triples))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
	}
}

// TestCoordPlanCache: the coordinator serves a repeated query from its
// plan cache — one miss, then hits, accounted in /metrics — and a
// cached plan never serves a stale answer: after a small insert
// through the coordinator the same text is still a hit and sees the
// new row; after an insert that moves a leaf count out of the re-plan
// band on the gathered store it is a refresh.  Every answer is the
// oracle's for the cluster's contents at the time.
func TestCoordPlanCache(t *testing.T) {
	shards := []*rdf.Graph{rdf.NewGraph(), rdf.NewGraph()}
	coord := newTestCoord(t, []string{fakeShard(t, shards[0]).URL, fakeShard(t, shards[1]).URL})
	union := rdf.NewGraph()
	insert := func(text string) {
		coordInsert(t, coord.URL, text)
		delta, err := rdf.ReadGraph(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		union.AddAll(delta)
	}
	var chain strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&chain, "<n%d> <knows> <n%d> .\n", i, i+1)
	}
	insert(chain.String())

	const q = "(?x knows ?y) AND (?y knows ?z) AND (?z knows ?w)"
	ask := func() {
		t.Helper()
		resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if want := oracleBody(t, union, q, nil); !bytes.Equal(got, want) {
			t.Fatalf("answer differs from the oracle's\ngot  %.400s\nwant %.400s", got, want)
		}
	}
	cache := func() obs.PlanCacheStats {
		t.Helper()
		pc := coordMetrics(t, coord.URL).PlanCache
		if pc == nil {
			t.Fatal("/metrics has no plan_cache block")
		}
		return *pc
	}

	ask()
	ask()
	if pc := cache(); pc.Misses != 1 || pc.Hits != 1 || pc.Refreshes != 0 || pc.Size != 1 || pc.Capacity != planCacheEntries {
		t.Fatalf("after a repeated query: %+v, want one miss and one hit", pc)
	}

	insert("<n6> <knows> <n7> .\n") // one more answer row, no drift
	ask()
	if pc := cache(); pc.Misses != 1 || pc.Hits != 2 || pc.Refreshes != 0 {
		t.Fatalf("after a small insert: %+v, want a second hit", pc)
	}

	var many strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&many, "<m%d> <knows> <n%d> .\n", i, i%7)
	}
	insert(many.String()) // knows: 7 → 37, out of the band
	ask()
	if pc := cache(); pc.Misses != 2 || pc.Hits != 2 || pc.Refreshes != 1 || pc.Size != 1 {
		t.Fatalf("after a drifting insert: %+v, want one refresh replacing the entry", pc)
	}
	ask()
	if pc := cache(); pc.Hits != 3 {
		t.Fatalf("the refreshed plan is not served from the cache: %+v", pc)
	}
	// Concurrent queries share the one cached plan, each on its own
	// gathered store.
	want := oracleBody(t, union, q, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + url.QueryEscape(q))
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("concurrent query: status %d, answer differs from the oracle's", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pc := cache(); pc.Hits != 23 || pc.Misses != 2 {
		t.Fatalf("after 20 concurrent repeats: %+v, want 20 more hits", pc)
	}
	// A parse failure is a miss that is never cached.
	resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + url.QueryEscape("(?x knows"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", resp.StatusCode)
	}
	if pc := cache(); pc.Misses != 3 || pc.Size != 1 {
		t.Fatalf("after a parse failure: %+v", pc)
	}
}
