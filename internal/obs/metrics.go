package obs

import (
	"sync/atomic"
	"time"
)

// latencyBucketsUS are the upper bounds (µs, inclusive) of the latency
// histogram, log-spaced from 100µs to 10s; observations beyond the
// last bound land in the +Inf bucket.  Fixed at compile time so
// Observe is a lock-free scan over a small array.
var latencyBucketsUS = [...]int64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// Histogram is a fixed-bucket latency histogram with atomic counters.
type Histogram struct {
	counts [len(latencyBucketsUS) + 1]atomic.Int64 // +1: the +Inf bucket
	count  atomic.Int64
	sumUS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUS.Add(us)
	for i, le := range latencyBucketsUS {
		if us <= le {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBucketsUS)].Add(1)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// durations from the bucket counts: it returns the upper bound of the
// first bucket whose cumulative count reaches q of the total, which
// over-estimates by at most one bucket width.  The +Inf bucket
// resolves to the last finite bound.  It reports false when the
// histogram has no observations (or the receiver is nil), so callers
// can fall back to a configured default — the cluster coordinator
// uses this for its hedging delay, where "no data yet" must not read
// as "hedge immediately".
func (h *Histogram) Quantile(q float64) (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	total := h.count.Load()
	if total == 0 {
		return 0, false
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			le := latencyBucketsUS[len(latencyBucketsUS)-1]
			if i < len(latencyBucketsUS) {
				le = latencyBucketsUS[i]
			}
			return time.Duration(le) * time.Microsecond, true
		}
	}
	return time.Duration(latencyBucketsUS[len(latencyBucketsUS)-1]) * time.Microsecond, true
}

// HistogramSnapshot is the serialized form of a Histogram.  Buckets
// are non-cumulative; the final bucket's LeUS is -1, meaning +Inf.
type HistogramSnapshot struct {
	Count   int64           `json:"count"`
	SumUS   int64           `json:"sum_us"`
	Buckets []LatencyBucket `json:"buckets"`
}

// LatencyBucket is one histogram bucket: observations in
// (previous bound, LeUS], with LeUS = -1 for the +Inf bucket.
type LatencyBucket struct {
	LeUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// Snapshot copies the histogram into a plain, serializable value.  It
// is safe to call concurrently with Observe (buckets may be slightly
// torn relative to each other, never corrupt) and on a nil receiver.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), SumUS: h.sumUS.Load()}
	s.Buckets = make([]LatencyBucket, 0, len(h.counts))
	for i := range h.counts {
		le := int64(-1)
		if i < len(latencyBucketsUS) {
			le = latencyBucketsUS[i]
		}
		s.Buckets = append(s.Buckets, LatencyBucket{LeUS: le, Count: h.counts[i].Load()})
	}
	return s
}

// metricsCodes are the response statuses nsserve can produce; every
// counter exists from construction so the increment path is lock-free
// map reads of a map that never mutates after NewMetrics.
var metricsCodes = [...]int{200, 400, 404, 405, 413, 500, 503, 504}

// metricsEndpoints are the instrumented endpoints, each with its own
// latency histogram.
var metricsEndpoints = [...]string{"query", "insert", "stats", "scan"}

// Metrics is the process-wide server metrics registry: request counts
// by status, per-endpoint latency histograms, an in-flight gauge, and
// counters for governor trips.  All methods are safe for concurrent use
// and are no-ops on a nil receiver.
type Metrics struct {
	codes      map[int]*atomic.Int64
	codesOther atomic.Int64
	latency    map[string]*Histogram

	inFlight       atomic.Int64
	governorTrips  atomic.Int64
	plannerReplans atomic.Int64
	panics         atomic.Int64

	// The result-encoding layer of /query: time spent turning an
	// answer into a response body, and the bytes of every body sent.
	queryEncode   Histogram
	responseBytes atomic.Int64
}

// NewMetrics returns an empty registry with every known status and
// endpoint pre-seeded.
func NewMetrics() *Metrics {
	m := &Metrics{
		codes:   make(map[int]*atomic.Int64, len(metricsCodes)),
		latency: make(map[string]*Histogram, len(metricsEndpoints)),
	}
	for _, c := range metricsCodes {
		m.codes[c] = new(atomic.Int64)
	}
	for _, e := range metricsEndpoints {
		m.latency[e] = new(Histogram)
	}
	return m
}

// ObserveRequest records one completed request: its status code and,
// for a known endpoint, its latency.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	if m == nil {
		return
	}
	if c, ok := m.codes[code]; ok {
		c.Add(1)
	} else {
		m.codesOther.Add(1)
	}
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(d)
	}
}

// IncInFlight/DecInFlight maintain the in-flight request gauge.
func (m *Metrics) IncInFlight() {
	if m != nil {
		m.inFlight.Add(1)
	}
}

// DecInFlight decrements the in-flight request gauge.
func (m *Metrics) DecInFlight() {
	if m != nil {
		m.inFlight.Add(-1)
	}
}

// GovernorTrip counts one query stopped by its governor (deadline or
// resource budget).
func (m *Metrics) GovernorTrip() {
	if m != nil {
		m.governorTrips.Add(1)
	}
}

// AddPlannerReplans counts mid-query re-optimizations: the adaptive
// chain executor re-planned the remaining join order after observed
// rows drifted past the planner's estimate.  n is the replan count of
// one query (from its profile), so the counter totals replans, not
// replanned queries.
func (m *Metrics) AddPlannerReplans(n int64) {
	if m != nil && n > 0 {
		m.plannerReplans.Add(n)
	}
}

// ObserveEncode records one /query answer encoded into a response
// body: how long the encoding took and how many bytes it produced.
func (m *Metrics) ObserveEncode(d time.Duration, bytes int) {
	if m != nil {
		m.queryEncode.Observe(d)
		m.responseBytes.Add(int64(bytes))
	}
}

// Panic counts one handler panic converted to a 500.
func (m *Metrics) Panic() {
	if m != nil {
		m.panics.Add(1)
	}
}

// StoreStats is the /metrics view of the triple store's index layout:
// logical size, base/overlay split, and compaction count.  nsserve
// maintains it as an atomic mirror refreshed after each insert, so
// /metrics stays lock-free.
type StoreStats struct {
	Triples     int64  `json:"triples"`
	BaseTriples int64  `json:"base_triples"`
	OverlayAdds int64  `json:"overlay_adds"`
	OverlayDels int64  `json:"overlay_dels"`
	Compactions int64  `json:"compactions"`
	Epoch       uint64 `json:"epoch"`
}

// DurableStats is the /metrics view of the durable storage backend
// (internal/rdf/durable): WAL volume, sync activity, snapshot cadence
// and what the last recovery found.  The Recovered* fields are set
// once at Open and never change; the rest are live counters.
type DurableStats struct {
	Generation               uint64            `json:"generation"`
	WALRecords               int64             `json:"wal_records"`
	WALBytes                 int64             `json:"wal_bytes"`
	WALSyncs                 int64             `json:"wal_syncs"`
	WALErrors                int64             `json:"wal_errors"`
	Snapshots                int64             `json:"snapshots"`
	LastSnapshotUnix         int64             `json:"last_snapshot_unix"`
	RecoveredSnapshotTriples int64             `json:"recovered_snapshot_triples"`
	RecoveredWALRecords      int64             `json:"recovered_wal_records"`
	RecoveredTruncatedBytes  int64             `json:"recovered_truncated_bytes"`
	FsyncLatency             HistogramSnapshot `json:"fsync_latency"`
}

// ShardStats is the /metrics view of one shard as seen by the cluster
// coordinator: its health-prober state, the retry/hedge activity of
// the scatter path, and the scan-latency histogram the hedging delay
// is derived from.
type ShardStats struct {
	Shard        int               `json:"shard"`
	Addr         string            `json:"addr"`
	State        string            `json:"state"` // "healthy" | "ejected"
	Scans        int64             `json:"scans"`
	ScanErrors   int64             `json:"scan_errors"`
	ScanBytes    int64             `json:"scan_bytes"`
	Retries      int64             `json:"retries"`
	Hedges       int64             `json:"hedges"`
	HedgeWins    int64             `json:"hedge_wins"`
	HedgesWasted int64             `json:"hedges_wasted"`
	Ejections    int64             `json:"ejections"`
	Readmissions int64             `json:"readmissions"`
	Probes       int64             `json:"probes"`
	ProbeFails   int64             `json:"probe_fails"`
	ScanLatency  HistogramSnapshot `json:"scan_latency"`
}

// ClusterStats is the /metrics view of the scatter-gather coordinator:
// per-shard counters plus the query-level degradation accounting.
// PartialResponses counts queries answered 200 with partial:true —
// exactly once per degraded query.
type ClusterStats struct {
	Shards           []ShardStats `json:"shards"`
	Queries          int64        `json:"queries"`
	PartialResponses int64        `json:"partial_responses"`
	FailedResponses  int64        `json:"failed_responses"`
}

// PlanCacheStats is the /metrics view of a server's parse/plan cache
// (exec.PlanCache; nsserve and nscoord both export it).
// Misses counts every lookup that prepared a plan; Refreshes counts
// the subset that re-prepared a cached query whose statistics drifted.
type PlanCacheStats struct {
	Size      int64 `json:"size"`
	Capacity  int64 `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Refreshes int64 `json:"refreshes"`
	Evictions int64 `json:"evictions"`
}

// MetricsSnapshot is the serialized form of Metrics — the /metrics
// response body (expvar-style JSON).  Store and PlanCache are filled
// in by the server (they live outside this registry) and omitted when
// the feature is off.
type MetricsSnapshot struct {
	Requests       map[string]int64             `json:"requests"`
	InFlight       int64                        `json:"in_flight"`
	GovernorTrips  int64                        `json:"governor_trips"`
	PlannerReplans int64                        `json:"planner_replans"`
	Panics         int64                        `json:"panics"`
	ResponseBytes  int64                        `json:"response_bytes_total"`
	QueryEncode    HistogramSnapshot            `json:"query_encode"`
	Store          *StoreStats                  `json:"store,omitempty"`
	Durable        *DurableStats                `json:"durable,omitempty"`
	PlanCache      *PlanCacheStats              `json:"plan_cache,omitempty"`
	Cluster        *ClusterStats                `json:"cluster,omitempty"`
	Traces         *TraceStats                  `json:"traces,omitempty"`
	Latency        map[string]HistogramSnapshot `json:"latency"`
}

// Snapshot copies the registry into a plain, serializable value.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests: make(map[string]int64, len(m.codes)+1),
		Latency:  make(map[string]HistogramSnapshot, len(m.latency)),
	}
	for code, c := range m.codes {
		s.Requests[itoa(code)] = c.Load()
	}
	if other := m.codesOther.Load(); other > 0 {
		s.Requests["other"] = other
	}
	for e, h := range m.latency {
		s.Latency[e] = h.Snapshot()
	}
	s.InFlight = m.inFlight.Load()
	s.GovernorTrips = m.governorTrips.Load()
	s.PlannerReplans = m.plannerReplans.Load()
	s.Panics = m.panics.Load()
	s.ResponseBytes = m.responseBytes.Load()
	s.QueryEncode = m.queryEncode.Snapshot()
	return s
}

// itoa avoids strconv for the tiny fixed status-code set.
func itoa(code int) string {
	buf := [8]byte{}
	i := len(buf)
	for code > 0 {
		i--
		buf[i] = byte('0' + code%10)
		code /= 10
	}
	return string(buf[i:])
}
