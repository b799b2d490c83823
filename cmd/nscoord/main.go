// Command nscoord is the scatter-gather coordinator of a sharded
// nsserve cluster: it answers NS-SPARQL queries against the union of
// N hash-by-subject shard servers, routing inserts to the owning
// shard and degrading gracefully when shards fail.
//
// Usage:
//
//	nscoord -shards http://h1:8081,http://h2:8082 -addr :8080
//
// Endpoints:
//
//	GET  /query?q=<query>[&syntax=paper|sparql][&timeout=<dur|ms>][&profile=1]
//	     SELECT/pattern → SPARQL 1.1 JSON results, extended with
//	     "partial": bool and, when partial, a per-shard "shards" error
//	     block (then the "profile" and "plan" blocks with profile=1).
//	     ASK → {"boolean": ..., "partial": ...}.  CONSTRUCT →
//	     N-Triples (text/plain) with an X-Partial: true header when
//	     degraded.  502 when no shard is reachable at all.  Bodies
//	     are exec.ResultWriter's: the same order and bytes as a single
//	     node holding the triples, with a Content-Length.
//	POST /insert       N-Triples body, partitioned by subject hash and
//	     forwarded to the owning shards; response {"added": N,
//	     "partial": bool[, "shards": [...]]}.  A body over 16 MiB is
//	     refused with 413.
//	GET  /healthz      liveness (always 200 while the process runs)
//	GET  /readyz       readiness: 503 once graceful shutdown began
//	GET  /metrics      process metrics plus the "cluster" block:
//	     per-shard scan/retry/hedge/ejection counters, scan_bytes
//	     (response bytes read off the wire) and latency histograms,
//	     and query/partial/failed totals; and the "plan_cache"
//	     block (size, hits, misses, refreshes, evictions).  JSON by
//	     default; Prometheus text exposition with Accept: text/plain
//	     or ?format=prometheus.
//	GET  /debug/traces[?id=<trace>&limit=N]
//	     recent trace summaries, or one stitched distributed trace by
//	     ID: the coordinator's own spans (parse, plan, exec with
//	     per-operator children, one gather span with one rpc.scan
//	     child per shard attempt carrying its retry/hedge outcome and
//	     patterns/triples/dict/bytes) merged with the span segments fetched
//	     from every shard's /debug/traces for that trace ID.
//
// The coordinator is the serving front of internal/serve over its
// Cluster backend, the same front nsserve runs over its locked store:
// query IDs, tracing, metrics, admission (at most 64 concurrent
// queries; the excess gets 503), the deadline and timeout=, the
// -max-steps / -max-rows budget, profile=1, the engine-error → HTTP
// mapping, the slow-query line and panic recovery are one code path
// for both.  Queries go through the parse/plan cache (exec.PlanCache,
// 256 entries keyed on syntax and query text): a repeated query skips
// the parse and the cost-based DP planner.  A plan is correct on any
// gathered subgraph; the cached one is revalidated on each query's
// gathered store (plan.Prepared.Drifted) and re-prepared from its
// cached parse only when a leaf count left the re-plan band.  The
// planner ablations are nsbench experiments (E28, E30), not
// coordinator settings.
//
// # Tracing
//
// Every request starts a trace whose ID rides to the shards in the
// NS-Trace-Id/NS-Parent-Span headers (and back to the client in the
// response's NS-Trace-Id), and whose query ID — adopted from the
// request's NS-Query-Id header, generated otherwise — is forwarded as
// NS-Query-Id so shard logs correlate with the coordinator's.
// Completed traces are kept tail-based: slow (-slow-query), errored
// and partial traces always, the rest sampled at -trace-sample.
// -trace-buffer bounds the ring; negative disables tracing.
//
// # Fault model
//
// Each query's triple patterns are sent to every healthy shard in one
// POST /scan; each shard answers with one binary frame (a sorted
// dictionary, the sorted union of the patterns' matches as dictionary
// indices from one snapshot of the shard, a count + CRC-32 trailer),
// and the frames are k-way-merged straight into the sorted indexes of
// a per-query subgraph that the ordinary single-node engine evaluates
// — exact on every fragment of the language, including OPT and NS (see
// internal/cluster).  Scans
// are retried with jittered exponential backoff, hedged after the
// shard's observed latency quantile, and bounded by both -scan-timeout
// per attempt and the query deadline overall.  A background prober
// ejects shards failing -eject-after consecutive /readyz probes and
// readmits them after -readmit-after successes.  When a shard stays
// unreachable, the query is answered from the rest and flagged
// partial, rather than failing outright.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// The coordinator's fixed governance: nsserve's -max-concurrent,
// -plan-cache and -max-insert-bytes defaults, with no flags of their
// own.
const (
	maxConcurrent    = 64
	planCacheEntries = 256
	maxInsertBytes   = 16 << 20
)

// newCoordServer returns the serving front over the coordinator with
// cfg's knobs and the fixed ones above.
func newCoordServer(coord *cluster.Coordinator, cfg serve.Config) *serve.Front {
	cfg.MaxConcurrent, cfg.PlanCache, cfg.MaxInsertBytes = maxConcurrent, planCacheEntries, maxInsertBytes
	return serve.New(cfg, serve.NewCluster(coord))
}

func main() {
	var (
		shardsFlag = flag.String("shards", "", "comma-separated shard base URLs, index i serving partition i/N (required)")
		addr       = flag.String("addr", ":8080", "listen address")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second,
			"per-query deadline covering gather and evaluation; timeout= may lower it (0 = unlimited)")
		maxSteps = flag.Int64("max-steps", 0,
			"per-query engine step budget over the gathered subgraph (0 = unlimited)")
		maxRows = flag.Int64("max-rows", 0,
			"per-query result row budget (0 = unlimited)")
		scanTimeout = flag.Duration("scan-timeout", 10*time.Second,
			"per-attempt cap on one shard scan (the query deadline still applies on top)")
		retries = flag.Int("retries", 4,
			"total tries per shard scan, first attempt included")
		hedgeDelay = flag.Duration("hedge-delay", 50*time.Millisecond,
			"hedging delay until a shard has enough latency samples for its quantile")
		disableHedging = flag.Bool("disable-hedging", false,
			"turn hedged (duplicate) requests off; retries remain")
		probeInterval = flag.Duration("probe-interval", time.Second,
			"health-prober period (<= 0 disables the prober)")
		ejectAfter = flag.Int("eject-after", 3,
			"consecutive failed probes before a shard is ejected")
		readmitAfter = flag.Int("readmit-after", 2,
			"consecutive successful probes before an ejected shard is readmitted")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM")
		logLevel = flag.String("log-level", "info",
			"structured-log threshold: debug, info, warn or error")
		slowQuery = flag.Duration("slow-query", 0,
			"log a structured slow-query line (and always keep the trace) for queries at least this slow (0 = off)")
		traceSample = flag.Float64("trace-sample", 0.1,
			"tail-sampling keep probability for unremarkable traces (slow/error/partial traces are always kept)")
		traceBuffer = flag.Int("trace-buffer", 256,
			"completed traces retained for /debug/traces (negative disables tracing)")
	)
	flag.Parse()
	logger, err := serve.NewLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscoord:", err)
		os.Exit(1)
	}
	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "nscoord: -shards is required (comma-separated base URLs)")
		os.Exit(1)
	}
	coord, err := cluster.New(cluster.Options{
		Shards:         shards,
		Backoff:        cluster.BackoffPolicy{Base: 10 * time.Millisecond, Max: 500 * time.Millisecond, Multiplier: 2, Jitter: 0.2, MaxAttempts: *retries},
		ScanTimeout:    *scanTimeout,
		HedgeDelay:     *hedgeDelay,
		DisableHedging: *disableHedging,
		ProbeInterval:  *probeInterval,
		EjectAfter:     *ejectAfter,
		ReadmitAfter:   *readmitAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscoord:", err)
		os.Exit(1)
	}
	coord.Start()

	s := newCoordServer(coord, serve.Config{
		QueryTimeout: *queryTimeout,
		MaxSteps:     *maxSteps,
		MaxRows:      *maxRows,
		Logger:       logger,
		SlowQuery:    *slowQuery,
		TraceSample:  *traceSample,
		TraceBuffer:  *traceBuffer,
	})
	logger.Info("nscoord listening", "addr", *addr, "shards", len(shards),
		"query_timeout", *queryTimeout, "retries", *retries, "hedging", !*disableHedging)

	err = s.ListenAndServe(*addr, *drainTimeout)
	// Close after the drain: no in-flight request holds the coordinator
	// once Shutdown returns, so Close's leak-proof wait terminates.
	coord.Close()
	if err != nil {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}
