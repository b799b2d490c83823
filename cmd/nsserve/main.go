// Command nsserve exposes an NS-SPARQL endpoint over HTTP, serving
// query results in the W3C SPARQL 1.1 JSON results format.
//
// Usage:
//
//	nsserve -graph data.nt -addr :8080 [governor flags]
//
// Endpoints:
//
//	GET  /query?q=<query>[&syntax=paper|sparql][&timeout=<dur|ms>]
//	     SELECT/pattern → application/sparql-results+json; head.vars
//	                   is the sorted list of variables some solution
//	                   binds ([] for an empty answer)
//	     ASK (sparql syntax) → {"boolean": true|false}
//	     CONSTRUCT → sorted, duplicate-free N-Triples (text/plain)
//	     Bindings and triples come in a deterministic order — by
//	     variable, then IRI bytes, a prefix first — that a cluster
//	     reproduces; every answer has a Content-Length, and is encoded
//	     from ID rows under the store's read lock but sent after it is
//	     released (exec.ResultWriter, DESIGN.md §6)
//	POST /insert       body: N-Triples lines; inserts into the graph
//	GET  /stats        {"triples": N, "iris": M}
//	POST /scan         body: one "s=&p=&o=" line per triple pattern (absent
//	                   key = wildcard); answers with one binary frame — a
//	                   sorted dictionary of the response's IRIs, the sorted
//	                   duplicate-free union of the patterns' matches as
//	                   dictionary indices, read under one read lock, and a
//	                   count + CRC-32 trailer — the cluster scatter-gather
//	                   wire protocol (internal/cluster/scan.go)
//	GET  /scan?s=&p=&o=  the one-pattern spelling of the same request
//	GET  /healthz      {"status": "ok", "version": ..., "go": ..., "triples": N,
//	                   "backend": "memstore"|"durable"[, "shard": "i/N"]
//	                   [, "wal_generation": G,
//	                   "last_snapshot_age_seconds": A]} — liveness, lock-free
//	GET  /readyz       readiness: 200 {"status": "ready"} normally, 503
//	                   {"status": "draining"} once graceful shutdown began
//	GET  /metrics      process metrics as JSON: request counts by status,
//	                   per-endpoint latency histograms, in-flight gauge,
//	                   governor-trip / panic counters,
//	                   the query_encode histogram and response_bytes_total,
//	                   triple-store index stats, plan-cache hit/miss
//	                   counters, trace/sampler counters and (durable
//	                   backend) WAL/snapshot/recovery counters with an
//	                   fsync-latency histogram.  With Accept: text/plain
//	                   or ?format=prometheus the same snapshot is served
//	                   in the Prometheus text exposition format.
//	GET  /debug/traces completed query traces from the tail-sampled ring
//	                   buffer: a summary list, or one trace's span tree
//	                   as JSON with ?id=<trace-id> (see NS-Trace-Id
//	                   response headers and nsq -trace)
//	GET  /debug/pprof  Go profiling endpoints (only with -pprof)
//
// The default query syntax is the W3C-style surface syntax; pass
// syntax=paper for the paper notation (with parenthesized triples and
// the NS(...) operator).  Everything but /stats, /scan and pprof is the
// serving front nscoord runs too (internal/serve), over this server's
// locked store.
//
// # Observability
//
// Every query is evaluated under a per-operator profiler (wall time,
// rows in/out, dedup hits, NS candidates vs survivors, index range
// scans, merge runs, bind probes, re-plans, budget consumption).  Pass profile=1
// on /query to receive the profile tree as a "profile" block in
// SELECT and ASK responses (CONSTRUCT output is N-Triples text and has
// no JSON envelope; use nsq -stats for profiled CONSTRUCT runs).
//
// Requests are logged as one structured line each (log/slog) carrying
// a query ID (NS-Query-Id's, or generated); -log-level sets the
// threshold and -pprof opt-in exposes /debug/pprof.
//
// Every request also runs under a distributed-tracing span.  A trace
// context arriving in NS-Trace-Id/NS-Parent-Span headers (set by the
// nscoord coordinator on /scan and /query fan-out) joins this server's
// spans to the caller's trace; the NS-Query-Id header likewise carries
// the coordinator's query ID into this server's log lines.  Completed
// traces land in a bounded in-memory ring with tail-based retention —
// slow, errored, partial and remote-adopted traces are always kept,
// the rest sampled at -trace-sample — and are served from
// /debug/traces.  -slow-query <dur> additionally logs a structured
// slow-query line (query text, trace ID, plan Explain JSON, hottest
// operators) for every query at least that slow.
//
// # Resource governance
//
// NS-SPARQL evaluation is intractable in the worst case (the paper's
// Theorems 7.1–7.4), so every query runs under a governor:
//
//   - -query-timeout is the per-query deadline.  A request may lower
//     (never raise) it with the timeout= parameter, given as a Go
//     duration ("500ms") or bare milliseconds ("500").  An expired
//     deadline returns 504 with {"error": ..., "partial": false}.
//   - -max-concurrent bounds in-flight /query requests; the excess is
//     refused immediately with 503.
//   - -max-steps / -max-rows bound a single query's search steps and
//     result rows; exceeding them returns 503.
//   - -max-insert-bytes caps the /insert body (413 beyond it).
//   - Each query is evaluated on one goroutine; the server uses its
//     cores across concurrent queries.  Queries are planned by the
//     cost-based DP planner; adaptive-armed AND chains run operand by
//     operand with drift checkpoints and mid-query re-planning.  The
//     planner ablations (greedy ordering, no re-planning) are nsbench
//     experiment E28, not server settings.
//   - -plan-cache bounds the LRU parse/plan cache (entries; 0
//     disables).  Entries are keyed by (syntax, query text) and
//     survive inserts: a plan is correct on any graph
//     contents, and the first read after an insert re-plans it only
//     when one of the index counts it was chosen on left the re-plan
//     band.
//
// Engine panics are converted to 500s without killing the process, and
// SIGINT/SIGTERM drains in-flight requests for up to -drain-timeout
// before exiting.
//
// # Durability
//
// By default the store is in-memory and dies with the process.  Pass
// -data-dir to switch to the durable WAL+snapshot backend
// (internal/rdf/durable): every insert commits as one atomic WAL
// record, -fsync picks the sync policy (always, batch or off), and
// -snapshot-every bounds WAL replay time by rolling a full snapshot
// after that many mutations.  On boot the store recovers from the
// newest valid snapshot plus the WAL tail, truncating any record torn
// by a crash; pair -data-dir with -graph to idempotently seed the
// store from a triples file.
//
// # Cluster mode
//
// Pass -shard i/N to make this server one shard of an N-way cluster:
// it owns the hash-by-subject partition i and rejects inserts of
// triples outside it (400), so a fleet of N nsserve processes behind
// an nscoord coordinator holds each triple exactly once.  The
// coordinator routes inserts, scatter-gathers queries over /scan and
// probes /readyz for shard health; see cmd/nscoord.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/serve"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to the initial graph (default: empty graph)")
		addr      = flag.String("addr", ":8080", "listen address")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second,
			"per-query deadline; also the upper bound for the timeout= parameter (0 = unlimited)")
		maxConcurrent = flag.Int("max-concurrent", 64,
			"maximum concurrent /query requests; the excess gets 503 (0 = unlimited)")
		maxInsertBytes = flag.Int64("max-insert-bytes", 16<<20,
			"maximum /insert body size in bytes; larger bodies get 413 (0 = unlimited)")
		maxSteps = flag.Int64("max-steps", 0,
			"per-query engine step budget; exceeding it gets 503 (0 = unlimited)")
		maxRows = flag.Int64("max-rows", 0,
			"per-query result row budget; exceeding it gets 503 (0 = unlimited)")
		planCacheSize = flag.Int("plan-cache", 256,
			"parse/plan cache capacity in entries, keyed by query text; plans survive inserts and re-plan only when their index counts drift; 0 disables")
		dataDir = flag.String("data-dir", "",
			"directory for the durable WAL+snapshot backend; empty keeps the in-memory store")
		fsyncPolicy = flag.String("fsync", "batch",
			"durable WAL sync policy: always (sync per record), batch (bounded-loss, amortized) or off")
		snapshotEvery = flag.Int("snapshot-every", 10000,
			"durable backend: snapshot + WAL rotation after this many mutations (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM")
		logLevel = flag.String("log-level", "info",
			"structured-log threshold: debug, info, warn or error")
		pprofFlag = flag.Bool("pprof", false,
			"expose Go profiling under /debug/pprof (off by default: it leaks process internals)")
		shardSpec = flag.String("shard", "",
			`cluster mode: serve hash-by-subject partition i of N, given as "i/N" (e.g. "0/4")`)
		slowQuery = flag.Duration("slow-query", 0,
			"log a structured slow-query line (query, trace ID, plan, hottest operators) for /query requests at least this slow (0 = off)")
		traceSample = flag.Float64("trace-sample", 0.1,
			"tail-sampling keep probability for unremarkable traces (slow/error/partial/remote traces are always kept)")
		traceBuffer = flag.Int("trace-buffer", 256,
			"completed-trace ring buffer capacity for /debug/traces (negative disables tracing)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "nsserve:", err)
		os.Exit(1)
	}
	logger, err := serve.NewLogger(*logLevel)
	if err != nil {
		fail(err)
	}
	var store rdf.Store = rdf.NewStore()
	backend := "memstore"
	if *dataDir != "" {
		pol, err := durable.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fail(err)
		}
		ds, err := durable.Open(*dataDir, durable.Options{Fsync: pol, SnapshotEvery: *snapshotEvery})
		if err != nil {
			fail(err)
		}
		rs := ds.DurableStats()
		logger.Info("durable store recovered", "dir", *dataDir, "generation", rs.Generation,
			"snapshot_triples", rs.RecoveredSnapshotTriples, "wal_records", rs.RecoveredWALRecords,
			"truncated_bytes", rs.RecoveredTruncatedBytes, "fsync", pol.String())
		store = ds
		backend = "durable"
	}
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fail(err)
		}
		ts, err := rdf.ReadTriples(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		// AddTriples skips triples already present, so re-seeding a
		// durable store from the same -graph file on every boot is
		// idempotent: duplicates produce no WAL records.
		if _, err := store.AddTriples(ts); err != nil {
			fail(fmt.Errorf("seeding graph: %w", err))
		}
	}
	cfg := defaultConfig()
	cfg.QueryTimeout = *queryTimeout
	cfg.MaxConcurrent = *maxConcurrent
	cfg.MaxInsertBytes = *maxInsertBytes
	cfg.MaxSteps = *maxSteps
	cfg.MaxRows = *maxRows
	cfg.PlanCache = *planCacheSize
	cfg.pprof = *pprofFlag
	cfg.Logger = logger
	cfg.SlowQuery = *slowQuery
	cfg.TraceSample = *traceSample
	cfg.TraceBuffer = *traceBuffer
	if *shardSpec != "" {
		idx, n, err := parseShardSpec(*shardSpec)
		if err != nil {
			fail(err)
		}
		cfg.shardIndex, cfg.shardCount = idx, n
	}

	s := newServerWith(store, cfg)
	logger.Info("nsserve listening", "addr", *addr, "triples", store.Len(),
		"backend", backend, "shard", *shardSpec, "query_timeout", *queryTimeout,
		"max_concurrent", *maxConcurrent, "pprof", *pprofFlag)

	err = s.ListenAndServe(*addr, *drainTimeout)
	// Close after the drain: no in-flight request can touch the store
	// once Shutdown returns, and Close flushes the final WAL records.
	if cerr := store.Close(); cerr != nil {
		logger.Error("store close failed", "err", cerr)
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// parseShardSpec parses the -shard "i/N" flag.
func parseShardSpec(spec string) (index, count int, err error) {
	if _, serr := fmt.Sscanf(spec, "%d/%d", &index, &count); serr != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want \"i/N\", e.g. \"0/4\")", spec)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q (need 0 <= i < N)", spec)
	}
	return index, count, nil
}
