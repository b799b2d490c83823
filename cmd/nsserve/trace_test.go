package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestQueryTraceEndToEnd: a traced query echoes NS-Trace-Id and its
// trace on /debug/traces carries the whole pipeline — request root,
// plan span with the cache verdict, exec span, the bridged
// per-operator profile spans, and the encode span beside plan and
// exec with what it wrote.
func TestQueryTraceEndToEnd(t *testing.T) {
	ts := governedTestServer(t, chainGraph(20), func(c *config) {
		c.TraceSample = 1
	})
	q := "/query?syntax=paper&q=" + url.QueryEscape("(?x p ?y) AND (?y p ?z)")
	resp, body := get(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	traceID, sent := resp.Header.Get("NS-Trace-Id"), resp.ContentLength
	if traceID == "" {
		t.Fatal("no NS-Trace-Id on the response")
	}

	resp, body = get(t, ts, "/debug/traces?id="+traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", resp.StatusCode, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decoding trace: %v\n%s", err, body)
	}
	names := map[string]int{}
	var planSpan, rootSpan, execSpan, encodeSpan *obs.SpanSnapshot
	for i := range snap.Spans {
		names[snap.Spans[i].Name]++
		switch snap.Spans[i].Name {
		case "plan":
			planSpan = &snap.Spans[i]
		case "query":
			rootSpan = &snap.Spans[i]
		case "exec":
			execSpan = &snap.Spans[i]
		case "encode":
			encodeSpan = &snap.Spans[i]
		}
	}
	for _, want := range []string{"query", "plan", "exec", "encode"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks a %q span: %v\n%s", want, names, body)
		}
	}
	if encodeSpan.Parent != rootSpan.ID || execSpan.Parent != rootSpan.ID || planSpan.Parent != rootSpan.ID {
		t.Fatalf("plan, exec and encode are not siblings under the root:\n%s", body)
	}
	// 19 two-hop paths over x0..x20, three variables each.
	if a := encodeSpan.Attrs; a["rows"] != 19.0 || a["distinct_iris"] != 21.0 || a["bytes"] != float64(sent) {
		t.Fatalf("encode span attrs %+v for a %d-byte response", a, sent)
	}
	opSpans := 0
	for name, n := range names {
		if strings.HasPrefix(name, "op:") {
			opSpans += n
		}
	}
	if opSpans == 0 {
		t.Fatalf("no per-operator profile spans bridged into the trace: %v", names)
	}
	if planSpan.Attrs["cache"] != "miss" {
		t.Fatalf("first run should be a plan-cache miss: %+v", planSpan.Attrs)
	}
	if rootSpan.Attrs["qid"] == nil || rootSpan.Attrs["status"] == nil {
		t.Fatalf("root span lacks qid/status: %+v", rootSpan.Attrs)
	}

	// Second run of the same query: the trace must record a cache hit.
	resp, _ = get(t, ts, q)
	traceID2 := resp.Header.Get("NS-Trace-Id")
	_, body = get(t, ts, "/debug/traces?id="+traceID2)
	var snap2 obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap2); err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, sp := range snap2.Spans {
		if sp.Name == "plan" && sp.Attrs["cache"] == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("second run did not trace a plan-cache hit:\n%s", body)
	}

	// The listing includes both traces.
	_, body = get(t, ts, "/debug/traces")
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) < 2 {
		t.Fatalf("listing has %d traces, want >= 2", len(list.Traces))
	}
}

// TestRemoteTraceAdoption: a request carrying NS-Trace-Id joins that
// trace (shard mode) and is always retained despite SampleRate 0.
func TestRemoteTraceAdoption(t *testing.T) {
	ts := governedTestServer(t, chainGraph(5), func(c *config) {
		c.TraceSample = 0
		c.SlowQuery = -1 // disable the slow criterion: only remote adoption keeps it
	})
	req, err := http.NewRequest("GET", ts.URL+"/query?syntax=paper&q="+url.QueryEscape("(?x p ?y)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderTraceID, "feedfacefeedface")
	req.Header.Set(obs.HeaderParentSpan, "abc123")
	req.Header.Set(obs.HeaderQueryID, "q424242")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderTraceID); got != "feedfacefeedface" {
		t.Fatalf("adopted trace ID not echoed: %q", got)
	}
	_, body := get(t, ts, "/debug/traces?id=feedfacefeedface")
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("remote-adopted trace not retained: %v\n%s", err, body)
	}
	root := false
	for _, sp := range snap.Spans {
		if sp.Name == "query" && sp.Parent == "abc123" && sp.Attrs["qid"] == "q424242" {
			root = true
		}
	}
	if !root {
		t.Fatalf("adopted root span missing parent/qid:\n%s", body)
	}
}

// TestTracingDisabled: -trace-buffer < 0 serves 404s from
// /debug/traces and stamps no trace header, and /metrics omits the
// traces block.
func TestTracingDisabled(t *testing.T) {
	ts := governedTestServer(t, chainGraph(5), func(c *config) {
		c.TraceBuffer = -1
	})
	resp, _ := get(t, ts, "/query?syntax=paper&q="+url.QueryEscape("(?x p ?y)"))
	if resp.Header.Get("NS-Trace-Id") != "" {
		t.Fatal("disabled tracing still stamped NS-Trace-Id")
	}
	resp, _ = get(t, ts, "/debug/traces?id=whatever")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces with tracing off: %d", resp.StatusCode)
	}
	snap := fetchMetrics(t, ts)
	if snap.Traces != nil {
		t.Fatal("metrics should omit the traces block when tracing is off")
	}
}

// TestSlowQueryLog: a query slower than -slow-query writes the
// structured line with the query text, trace ID and plan.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	ts := governedTestServer(t, chainGraph(10), func(c *config) {
		c.Logger = logger
		c.SlowQuery = time.Nanosecond // everything is slow
		c.TraceSample = 1
	})

	resp, body := get(t, ts, "/query?syntax=paper&q="+url.QueryEscape("(?x p ?y)"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "trace_id=", "plan=", "hot_spans=", "encode wall="} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, resp.Header.Get("NS-Trace-Id")) {
		t.Fatalf("slow-query log does not name the response's trace:\n%s", out)
	}
}

// TestMetricsPrometheusNegotiation: Accept: text/plain flips /metrics
// to the exposition format; the bare request stays JSON.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	ts := governedTestServer(t, chainGraph(5), nil)
	get(t, ts, "/query?syntax=paper&q="+url.QueryEscape("(?x p ?y)"))

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
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
		"# TYPE ns_requests_total counter",
		`ns_requests_total{code="200"}`,
		"# TYPE ns_request_duration_seconds histogram",
		"ns_traces_started_total",
		"# TYPE ns_query_encode_duration_seconds histogram",
		"ns_query_encode_duration_seconds_count 1",
		"# TYPE ns_response_bytes_total counter",
		"ns_plan_cache_refreshes_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The JSON default is untouched.
	snap := fetchMetrics(t, ts)
	if snap.Requests["200"] == 0 {
		t.Fatal("JSON metrics no longer served")
	}
	if snap.QueryEncode.Count != 1 || snap.ResponseBytes == 0 {
		t.Fatalf("query_encode %+v, response_bytes_total %d after one query", snap.QueryEncode, snap.ResponseBytes)
	}
}
