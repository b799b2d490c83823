package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusBasics: counters, the histogram conversion to
// cumulative seconds buckets with a +Inf terminator, and label quoting.
func TestWritePrometheusBasics(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("query", 200, 2*time.Millisecond)
	m.ObserveRequest("query", 200, 30*time.Second) // beyond the last bound → +Inf
	m.ObserveRequest("insert", 500, time.Millisecond)
	m.GovernorTrip()
	snap := m.Snapshot()
	ts := TraceStats{Started: 5, Kept: 2}
	snap.Traces = &ts

	var sb strings.Builder
	WritePrometheus(&sb, snap)
	out := sb.String()

	for _, want := range []string{
		"# TYPE ns_requests_total counter",
		`ns_requests_total{code="200"} 2`,
		`ns_requests_total{code="500"} 1`,
		"ns_governor_trips_total 1",
		"# TYPE ns_request_duration_seconds histogram",
		`ns_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		`ns_request_duration_seconds_count{endpoint="query"} 2`,
		"ns_traces_started_total 5",
		"ns_traces_kept_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Buckets must be cumulative: every query bucket at or above 2.5ms
	// holds the 2ms observation, and the +Inf bucket equals the count.
	if !strings.Contains(out, `ns_request_duration_seconds_bucket{endpoint="query",le="0.0025"} 1`) {
		t.Fatalf("2ms observation missing from the 2.5ms bucket:\n%s", out)
	}
	if !strings.Contains(out, `ns_request_duration_seconds_bucket{endpoint="query",le="10"} 1`) {
		t.Fatalf("cumulative carry into the 10s bucket wrong:\n%s", out)
	}
}

// TestWritePrometheusEscaping: label values pass through the exposition
// escapes.
func TestWritePrometheusEscaping(t *testing.T) {
	if got := lbl("addr", `a"b\c`); got != `addr="a\"b\\c"` {
		t.Fatalf("lbl escaped to %s", got)
	}
	if got := lbl("addr", "x\ny"); got != `addr="x\ny"` {
		t.Fatalf("newline escaped to %s", got)
	}
}

// TestWritePrometheusClusterAndDurable: the optional snapshot blocks
// render with their labels.
func TestWritePrometheusClusterAndDurable(t *testing.T) {
	m := NewMetrics()
	snap := m.Snapshot()
	snap.Durable = &DurableStats{WALRecords: 7, FsyncLatency: HistogramSnapshot{Count: 1, SumUS: 500,
		Buckets: []LatencyBucket{{LeUS: 1000, Count: 1}, {LeUS: -1, Count: 0}}}}
	snap.Cluster = &ClusterStats{
		Queries: 3,
		Shards: []ShardStats{
			{Shard: 0, Addr: "http://s0", State: "healthy", Scans: 9, ScanBytes: 4096},
			{Shard: 1, Addr: "http://s1", State: "ejected", Scans: 2},
		},
	}
	var sb strings.Builder
	WritePrometheus(&sb, snap)
	out := sb.String()
	for _, want := range []string{
		"ns_durable_wal_records_total 7",
		`ns_durable_fsync_duration_seconds_bucket{le="0.001"} 1`,
		`ns_durable_fsync_duration_seconds_bucket{le="+Inf"} 1`,
		"ns_cluster_queries_total 3",
		`ns_shard_state{shard="0",addr="http://s0"} 1`,
		`ns_shard_state{shard="1",addr="http://s1"} 0`,
		`ns_shard_scans_total{shard="0",addr="http://s0"} 9`,
		`ns_shard_scan_bytes_total{shard="0",addr="http://s0"} 4096`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWantsPrometheus: negotiation via Accept and the format override;
// a browser's */* stays on JSON.
func TestWantsPrometheus(t *testing.T) {
	req := httptest.NewRequest("GET", "/metrics", nil)
	if WantsPrometheus(req) {
		t.Fatal("no Accept header should default to JSON")
	}
	req.Header.Set("Accept", "*/*")
	if WantsPrometheus(req) {
		t.Fatal("*/* should default to JSON")
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if !WantsPrometheus(req) {
		t.Fatal("a scraper Accept header should negotiate the text view")
	}
	req = httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	if !WantsPrometheus(req) {
		t.Fatal("format=prometheus should force the text view")
	}
}
