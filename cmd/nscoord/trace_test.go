package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/serve"
)

// tracedFakeShard is fakeShard plus the shard-side tracing envelope:
// /scan adopts the coordinator's trace headers into a local span and
// /debug/traces serves the shard ring for stitching.
func tracedFakeShard(t *testing.T, g *rdf.Graph) *httptest.Server {
	t.Helper()
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 1})
	inner := fakeShard(t, g)
	mux := http.NewServeMux()
	mux.Handle("/debug/traces", obs.TracesHandler(tracer, nil))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			sp := tracer.StartRemoteTrace(r.Header.Get(obs.HeaderTraceID),
				r.Header.Get(obs.HeaderParentSpan), "scan", "")
			sp.SetAttr("qid", r.Header.Get(obs.HeaderQueryID))
			defer sp.End()
		}
		inner.Config.Handler.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newTracedCoord builds a coordinator server with tracing fully on.
func newTracedCoord(t *testing.T, urls []string, mutate func(*serve.Config)) *httptest.Server {
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
	cfg := serve.Config{QueryTimeout: 5 * time.Second, TraceSample: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := httptest.NewServer(newCoordServer(coord, cfg))
	t.Cleanup(srv.Close)
	return srv
}

// TestCoordTraceStitched: a coordinator query produces one stitched
// trace — coordinator pipeline spans (parse, plan, exec with bridged
// operators, gather, rpc.scan) plus the shard-side scan spans fetched
// from each shard's /debug/traces, annotated with their shard index
// and carrying the forwarded coordinator query ID.
func TestCoordTraceStitched(t *testing.T) {
	g0, g1 := rdf.NewGraph(), rdf.NewGraph()
	g0.Add("a", "knows", "b")
	g1.Add("b", "knows", "c")
	coord := newTracedCoord(t, []string{tracedFakeShard(t, g0).URL, tracedFakeShard(t, g1).URL}, nil)

	resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + url.QueryEscape("(?x knows ?y) AND (?y knows ?z)"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.HeaderTraceID)
	if traceID == "" {
		t.Fatal("coordinator did not echo NS-Trace-Id")
	}

	resp, err = http.Get(coord.URL + "/debug/traces?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	names := map[string]int{}
	shardScans, annotated, qids := 0, 0, 0
	var qid any
	for _, sp := range snap.Spans {
		names[sp.Name]++
		if sp.Name == "query" && sp.Attrs["qid"] != nil {
			qid = sp.Attrs["qid"]
		}
		if sp.Name == "scan" {
			shardScans++
			if _, ok := sp.Attrs["shard"]; ok {
				annotated++
			}
		}
	}
	// A second pass now that the coordinator qid is known.
	for _, sp := range snap.Spans {
		if sp.Name == "scan" && sp.Attrs["qid"] == qid {
			qids++
		}
	}
	for _, want := range []string{"query", "parse", "plan", "exec", "encode", "gather", "rpc.scan"} {
		if names[want] == 0 {
			t.Fatalf("stitched trace lacks %q spans: %v", want, names)
		}
	}
	if names["gather"] != 1 {
		t.Fatalf("want one gather span per query, got %d", names["gather"])
	}
	if names["rpc.scan"] < 2 {
		t.Fatalf("want >= 2 rpc.scan spans (one per shard), got %d", names["rpc.scan"])
	}
	for _, sp := range snap.Spans {
		if sp.Name == "encode" && (sp.Attrs["rows"] != 1.0 || sp.Attrs["distinct_iris"] != 3.0 || sp.Attrs["bytes"] == nil) {
			t.Fatalf("encode span attrs: %v", sp.Attrs)
		}
		if sp.Name != "rpc.scan" || sp.Attrs["outcome"] != "winner" {
			continue
		}
		for _, attr := range []string{"shard", "attempt", "patterns", "triples", "dict", "bytes"} {
			if _, ok := sp.Attrs[attr]; !ok {
				t.Fatalf("winning rpc.scan span lacks %q: %v", attr, sp.Attrs)
			}
		}
	}
	hasOp := false
	for name := range names {
		if strings.HasPrefix(name, "op:") {
			hasOp = true
		}
	}
	if !hasOp {
		t.Fatalf("no per-operator spans bridged from the profile: %v", names)
	}
	if shardScans < 2 || annotated != shardScans {
		t.Fatalf("shard-side scan spans: %d total, %d annotated", shardScans, annotated)
	}
	if qid == nil || qids != shardScans {
		t.Fatalf("coordinator qid %v reached %d/%d shard scans", qid, qids, shardScans)
	}
}

// TestCoordMetricsPrometheus: /metrics negotiates the exposition
// format and includes the cluster and traces blocks.
func TestCoordMetricsPrometheus(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	coord := newTracedCoord(t, []string{fakeShard(t, g).URL}, nil)
	resp, err := http.Get(coord.URL + "/query?syntax=paper&q=" + url.QueryEscape("(?x p ?y)"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	req, _ := http.NewRequest("GET", coord.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"ns_cluster_queries_total 1",
		`ns_shard_state{shard="0"`,
		"ns_traces_started_total",
		`ns_requests_total{code="200"} 1`,
		"ns_query_encode_duration_seconds_count 1",
		"# TYPE ns_response_bytes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// JSON stays the default and now carries the traces block.
	resp, err = http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil || snap.Traces == nil {
		t.Fatalf("JSON metrics lack cluster/traces blocks: %+v", snap)
	}
	if snap.Traces.Started == 0 {
		t.Fatal("traces.started not counted")
	}
	if snap.QueryEncode.Count != 1 || snap.ResponseBytes == 0 {
		t.Fatalf("query_encode %+v, response_bytes_total %d after one query", snap.QueryEncode, snap.ResponseBytes)
	}
}
