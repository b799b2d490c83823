package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/serve"
)

// fakeShard mounts the real scan protocol plus /insert and /readyz
// over one in-process graph — a shard server without the process.
func fakeShard(t *testing.T, g *rdf.Graph) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/scan", cluster.ScanHandler(func() (rdf.Store, func()) {
		return g, g.AcquireRead()
	}))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		in, err := rdf.ReadGraph(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		added := 0
		in.ForEach(func(t3 rdf.Triple) bool {
			if g.AddTriple(t3) {
				added++
			}
			return true
		})
		fmt.Fprintf(w, "{\"added\": %d}\n", added)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newTestCoord builds a coordinator server over the given shard URLs
// with fast deterministic retry/probe settings.
func newTestCoord(t *testing.T, urls []string) *httptest.Server {
	t.Helper()
	coord, err := cluster.New(cluster.Options{
		Shards:         urls,
		Backoff:        cluster.BackoffPolicy{Base: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, MaxAttempts: 3},
		ScanTimeout:    time.Second,
		DisableHedging: true,
		ProbeInterval:  -1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(newCoordServer(coord, serve.Config{QueryTimeout: 5 * time.Second}))
	t.Cleanup(srv.Close)
	return srv
}

// TestCoordEndToEnd inserts through the coordinator and queries across
// the shard split: a join whose two triples live on different shards
// must still answer, proving the gather crosses partition boundaries.
func TestCoordEndToEnd(t *testing.T) {
	g0, g1 := rdf.NewGraph(), rdf.NewGraph()
	coord := newTestCoord(t, []string{fakeShard(t, g0).URL, fakeShard(t, g1).URL})

	// Two subjects on different shards, joined through ?y.
	var sA, sB rdf.IRI
	for i := 0; sA == "" || sB == ""; i++ {
		s := rdf.IRI(fmt.Sprintf("n%d", i))
		if cluster.ShardOf(s, 2) == 0 && sA == "" {
			sA = s
		} else if cluster.ShardOf(s, 2) == 1 && sB == "" {
			sB = s
		}
	}
	body := fmt.Sprintf("<%s> <knows> <%s> .\n<%s> <knows> <end> .\n", sA, sB, sB)
	resp, err := http.Post(coord.URL+"/insert", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ins struct {
		Added   int  `json:"added"`
		Partial bool `json:"partial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ins.Added != 2 || ins.Partial {
		t.Fatalf("insert: %+v", ins)
	}
	if g0.Len()+g1.Len() != 2 || g0.Len() == 0 || g1.Len() == 0 {
		t.Fatalf("partition split wrong: shard0=%d shard1=%d", g0.Len(), g1.Len())
	}

	q := "(?x knows ?y) AND (?y knows ?z)"
	resp, err = http.Get(coord.URL + "/query?syntax=paper&q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query = %d: %s", resp.StatusCode, b)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
		Partial bool `json:"partial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Partial {
		t.Fatal("healthy cluster answered partial")
	}
	if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["z"].Value != "end" {
		t.Fatalf("cross-shard join bindings: %+v", doc.Results.Bindings)
	}
}

func urlQueryEscape(q string) string {
	r := strings.NewReplacer(" ", "+", "?", "%3F", "&", "%26", "(", "%28", ")", "%29")
	return r.Replace(q)
}

// TestCoordPartialDegradation kills one shard and checks /query still
// answers 200 with partial:true and the dead shard named in the
// per-shard error block.
func TestCoordPartialDegradation(t *testing.T) {
	g0, g1 := rdf.NewGraph(), rdf.NewGraph()
	g1.Add("a", "p", "b")
	dead := fakeShard(t, g0)
	deadURL := dead.URL
	dead.Close()
	coord := newTestCoord(t, []string{deadURL, fakeShard(t, g1).URL})

	resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + urlQueryEscape("(?x p ?y)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
		Partial bool `json:"partial"`
		Shards  []cluster.ShardStatus
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Partial {
		t.Fatal("dead shard not flagged partial")
	}
	if len(doc.Shards) != 1 || doc.Shards[0].Shard != 0 || doc.Shards[0].Error == "" {
		t.Fatalf("shards block: %+v", doc.Shards)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("surviving shard's data missing: %+v", doc.Results.Bindings)
	}
}

// TestCoordAllShardsDown checks the no-data-at-all case is an error
// (502), not an empty 200.
func TestCoordAllShardsDown(t *testing.T) {
	s := fakeShard(t, rdf.NewGraph())
	url := s.URL
	s.Close()
	coord := newTestCoord(t, []string{url})
	resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + urlQueryEscape("(?x p ?y)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down query = %d, want 502", resp.StatusCode)
	}
}

// TestCoordMetricsAndReadyz checks /metrics carries the cluster block
// and /readyz flips on drain.
func TestCoordMetricsAndReadyz(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	coord, err := cluster.New(cluster.Options{
		Shards: []string{fakeShard(t, g).URL}, ProbeInterval: -1, DisableHedging: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s := newCoordServer(coord, serve.Config{QueryTimeout: time.Second})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	if _, err := http.Get(srv.URL + "/query?syntax=paper&q=" + urlQueryEscape("(?x p ?y)")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"cluster"`) || !strings.Contains(string(body), `"scans"`) {
		t.Fatalf("metrics missing cluster block: %s", body)
	}
	// Bytes on the wire are visible per shard, in both views.
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if sh := snap.Cluster.Shards[0]; sh.Scans != 1 || sh.ScanBytes <= 0 {
		t.Fatalf("one query, one shard: scans=%d scan_bytes=%d", sh.Scans, sh.ScanBytes)
	}
	resp, err = http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `ns_shard_scan_bytes_total{shard="0"`) {
		t.Fatalf("Prometheus view lacks ns_shard_scan_bytes_total:\n%s", text)
	}

	if resp, _ = http.Get(srv.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}
	resp.Body.Close()
	s.BeginDrain()
	if resp, _ = http.Get(srv.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCoordInsertBodyCap: an /insert body over 16 MiB is refused with
// 413 before any of it reaches a shard, and the coordinator keeps
// accepting ordinary inserts.
func TestCoordInsertBodyCap(t *testing.T) {
	g0, g1 := rdf.NewGraph(), rdf.NewGraph()
	coord := newTestCoord(t, []string{fakeShard(t, g0).URL, fakeShard(t, g1).URL})
	line := "<a> <p> <b> .\n"
	big := io.LimitReader(strings.NewReader(strings.Repeat(line, (maxInsertBytes/len(line))+2)), maxInsertBytes+1)
	resp, err := http.Post(coord.URL+"/insert", "text/plain", big)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized insert: status %d, want 413: %.200s", resp.StatusCode, body)
	}
	if g0.Len()+g1.Len() != 0 {
		t.Fatalf("the refused insert reached the shards: %d + %d triples", g0.Len(), g1.Len())
	}
	coordInsert(t, coord.URL, line)
	if g0.Len()+g1.Len() != 1 {
		t.Fatalf("small insert after the 413: %d + %d triples", g0.Len(), g1.Len())
	}
}
