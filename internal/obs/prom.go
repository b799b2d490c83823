package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the exposition-format content type served
// when /metrics negotiates the text view.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPrometheus reports whether a /metrics request negotiated the
// text exposition: an explicit format=prometheus parameter, or an
// Accept header naming text/plain (Prometheus scrapers send one; a
// browser's */* keeps the JSON default).
func WantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// WritePrometheus renders a MetricsSnapshot in the Prometheus text
// exposition format (version 0.0.4).  It is a pure function of the
// snapshot — the same value /metrics serves as JSON — so the two views
// can never disagree.  Histograms are converted from the snapshot's
// non-cumulative µs buckets to Prometheus's cumulative
// seconds-with-+Inf convention.
func WritePrometheus(w io.Writer, s MetricsSnapshot) {
	p := promWriter{w: w}

	p.header("ns_requests_total", "counter", "Completed HTTP requests by status code.")
	codes := make([]string, 0, len(s.Requests))
	for c := range s.Requests {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		p.val("ns_requests_total", lbl("code", c), float64(s.Requests[c]))
	}

	p.gauge("ns_in_flight", "Requests currently being served.", float64(s.InFlight))
	p.counter("ns_governor_trips_total", "Queries stopped by the governor (deadline or budget).", float64(s.GovernorTrips))
	p.counter("ns_pool_saturations_total", "Queries that found the parallel worker pool saturated.", float64(s.PoolSaturations))
	p.counter("ns_planner_replans_total", "Mid-query re-optimizations by the adaptive executor.", float64(s.PlannerReplans))
	p.counter("ns_panics_total", "Handler panics converted to 500s.", float64(s.Panics))
	p.counter("ns_response_bytes_total", "Bytes of /query response bodies encoded.", float64(s.ResponseBytes))
	p.header("ns_query_encode_duration_seconds", "histogram", "Time spent encoding a /query answer into its response body.")
	p.histogram("ns_query_encode_duration_seconds", "", s.QueryEncode)

	p.header("ns_request_duration_seconds", "histogram", "Request latency by endpoint.")
	endpoints := make([]string, 0, len(s.Latency))
	for e := range s.Latency {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	for _, e := range endpoints {
		p.histogram("ns_request_duration_seconds", lbl("endpoint", e), s.Latency[e])
	}

	if st := s.Store; st != nil {
		p.gauge("ns_store_triples", "Logical triples in the store.", float64(st.Triples))
		p.gauge("ns_store_base_triples", "Triples in the sorted base arrays.", float64(st.BaseTriples))
		p.gauge("ns_store_overlay_adds", "Pending overlay additions.", float64(st.OverlayAdds))
		p.gauge("ns_store_overlay_dels", "Pending overlay deletions.", float64(st.OverlayDels))
		p.counter("ns_store_compactions_total", "Overlay compactions into the base arrays.", float64(st.Compactions))
		p.gauge("ns_store_epoch", "Store mutation epoch (plan-cache validation trigger).", float64(st.Epoch))
	}

	if d := s.Durable; d != nil {
		p.gauge("ns_durable_generation", "Current snapshot generation.", float64(d.Generation))
		p.counter("ns_durable_wal_records_total", "Records appended to the WAL.", float64(d.WALRecords))
		p.counter("ns_durable_wal_bytes_total", "Bytes appended to the WAL.", float64(d.WALBytes))
		p.counter("ns_durable_wal_syncs_total", "WAL fsync calls.", float64(d.WALSyncs))
		p.counter("ns_durable_wal_errors_total", "WAL append/sync errors.", float64(d.WALErrors))
		p.counter("ns_durable_snapshots_total", "Durable snapshots rolled.", float64(d.Snapshots))
		p.gauge("ns_durable_last_snapshot_unix", "Unix time of the last snapshot.", float64(d.LastSnapshotUnix))
		p.header("ns_durable_fsync_duration_seconds", "histogram", "WAL fsync latency.")
		p.histogram("ns_durable_fsync_duration_seconds", "", d.FsyncLatency)
	}

	if pc := s.PlanCache; pc != nil {
		p.gauge("ns_plan_cache_size", "Cached plans.", float64(pc.Size))
		p.gauge("ns_plan_cache_capacity", "Plan cache capacity.", float64(pc.Capacity))
		p.counter("ns_plan_cache_hits_total", "Plan cache hits.", float64(pc.Hits))
		p.counter("ns_plan_cache_misses_total", "Plan cache misses.", float64(pc.Misses))
		p.counter("ns_plan_cache_refreshes_total", "Plan cache misses that re-prepared a drifted plan.", float64(pc.Refreshes))
		p.counter("ns_plan_cache_evictions_total", "Plan cache evictions.", float64(pc.Evictions))
	}

	if c := s.Cluster; c != nil {
		p.counter("ns_cluster_queries_total", "Queries gathered by the coordinator.", float64(c.Queries))
		p.counter("ns_cluster_partial_responses_total", "Degraded (partial:true) responses.", float64(c.PartialResponses))
		p.counter("ns_cluster_failed_responses_total", "Queries failed on all shards.", float64(c.FailedResponses))
		p.header("ns_shard_state", "gauge", "Shard health as seen by the prober (1 healthy, 0 ejected).")
		for _, sh := range c.Shards {
			state := 0.0
			if sh.State == "healthy" {
				state = 1
			}
			p.val("ns_shard_state", shardLabels(sh), state)
		}
		shardCounter := func(name, help string, get func(ShardStats) int64) {
			p.header(name, "counter", help)
			for _, sh := range c.Shards {
				p.val(name, shardLabels(sh), float64(get(sh)))
			}
		}
		shardCounter("ns_shard_scans_total", "Scan RPCs attempted against the shard.", func(s ShardStats) int64 { return s.Scans })
		shardCounter("ns_shard_scan_errors_total", "Scan RPCs that failed.", func(s ShardStats) int64 { return s.ScanErrors })
		shardCounter("ns_shard_scan_bytes_total", "Scan response bytes read from the shard, failed attempts included.", func(s ShardStats) int64 { return s.ScanBytes })
		shardCounter("ns_shard_retries_total", "Scan retries after a retryable failure.", func(s ShardStats) int64 { return s.Retries })
		shardCounter("ns_shard_hedges_total", "Hedge requests launched.", func(s ShardStats) int64 { return s.Hedges })
		shardCounter("ns_shard_hedge_wins_total", "Hedges that beat the primary.", func(s ShardStats) int64 { return s.HedgeWins })
		shardCounter("ns_shard_hedges_wasted_total", "Hedges the primary beat.", func(s ShardStats) int64 { return s.HedgesWasted })
		shardCounter("ns_shard_ejections_total", "Health-prober ejections.", func(s ShardStats) int64 { return s.Ejections })
		shardCounter("ns_shard_readmissions_total", "Health-prober readmissions.", func(s ShardStats) int64 { return s.Readmissions })
		p.header("ns_shard_scan_duration_seconds", "histogram", "Shard scan latency as observed by the coordinator.")
		for _, sh := range c.Shards {
			p.histogram("ns_shard_scan_duration_seconds", shardLabels(sh), sh.ScanLatency)
		}
	}

	if t := s.Traces; t != nil {
		p.counter("ns_traces_started_total", "Traces started.", float64(t.Started))
		p.counter("ns_traces_kept_total", "Traces retained by the tail sampler.", float64(t.Kept))
		p.counter("ns_traces_sampled_out_total", "Unremarkable traces dropped by the sampler.", float64(t.SampledOut))
		p.counter("ns_traces_evicted_total", "Retained traces evicted by ring wraparound.", float64(t.Evicted))
		p.counter("ns_trace_spans_total", "Spans recorded across all traces.", float64(t.Spans))
		p.gauge("ns_traces_buffered", "Completed traces currently buffered.", float64(t.Buffered))
	}
}

type promWriter struct{ w io.Writer }

func (p *promWriter) header(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) val(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, fnum(v))
		return
	}
	fmt.Fprintf(p.w, "%s %s\n", name, fnum(v))
}

func (p *promWriter) counter(name, help string, v float64) {
	p.header(name, "counter", help)
	p.val(name, "", v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, "gauge", help)
	p.val(name, "", v)
}

// histogram emits the cumulative bucket/sum/count triple for one
// HistogramSnapshot under the given (possibly empty) label set.
func (p *promWriter) histogram(name, labels string, h HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		le := "+Inf"
		if b.LeUS >= 0 {
			le = fnum(float64(b.LeUS) / 1e6)
		}
		fmt.Fprintf(p.w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	if len(h.Buckets) == 0 {
		fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	}
	if labels != "" {
		fmt.Fprintf(p.w, "%s_sum{%s} %s\n", name, labels, fnum(float64(h.SumUS)/1e6))
		fmt.Fprintf(p.w, "%s_count{%s} %d\n", name, labels, h.Count)
		return
	}
	fmt.Fprintf(p.w, "%s_sum %s\n", name, fnum(float64(h.SumUS)/1e6))
	fmt.Fprintf(p.w, "%s_count %d\n", name, h.Count)
}

// fnum formats a sample value the way Prometheus expects (shortest
// round-trip decimal).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// lbl renders one escaped label pair.  strconv.Quote implements the
// exposition format's label escapes (backslash, quote, newline) for
// the printable-ASCII values we emit.
func lbl(key, value string) string {
	return key + "=" + strconv.Quote(value)
}

func shardLabels(sh ShardStats) string {
	return "shard=\"" + strconv.Itoa(sh.Shard) + "\"," + lbl("addr", sh.Addr)
}
