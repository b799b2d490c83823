// Package serve is the HTTP front both servers share: nsserve over one
// long-lived store, nscoord over the subgraph it gathers from its
// shards.  Once a query has a store to run on, the two do the same
// work — ⟦P⟧ on the gathered subgraph is ⟦P⟧ on the cluster — so that
// work lives here, once:
//
//   - the request envelope: a query ID (adopted from NS-Query-Id or
//     generated), the root trace span, the in-flight gauge, the
//     per-endpoint latency histogram and request counter, one log line
//     per request, and panic recovery;
//   - the query lifecycle: admission, the deadline and timeout=, the
//     budget, the plan cache, exec.Run, the result encoding (profile=1
//     included), the engine-error → HTTP mapping, sending after the
//     store is released, the replan and pool metrics and the
//     slow-query line;
//   - the capped /insert body read, /readyz, /metrics, /debug/traces,
//     the http.Server timeouts and the graceful-drain loop.
//
// What differs is a Backend: where a query's store comes from, where
// an insert goes, and what /healthz and /metrics report about it.
// Store is nsserve's, Cluster is nscoord's.  nsserve mounts its own
// remaining endpoints (/stats, /scan, pprof) on the Front.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sparql"
)

// Config is the front's resource-governance and observability knobs.
type Config struct {
	QueryTimeout   time.Duration // per-query deadline; also caps timeout= (0 = none)
	MaxConcurrent  int           // concurrent /query limit; overflow gets 503 (0 = unlimited)
	MaxInsertBytes int64         // /insert body cap in bytes; overflow gets 413 (0 = unlimited)
	MaxSteps       int64         // per-query engine step budget (0 = unlimited)
	MaxRows        int64         // per-query result row budget (0 = unlimited)
	PlanCache      int           // parse/plan cache capacity in entries (0 = disabled)
	Logger         *slog.Logger  // structured logger; nil = slog.Default()

	// SlowQuery, when > 0, logs a structured "slow query" line (query
	// text, trace ID, plan Explain JSON, hottest operators) for every
	// /query slower than it; it is also the tracer's always-keep
	// threshold.  TraceSample is the tail sampler's keep probability
	// for unremarkable traces; TraceBuffer is the completed-trace ring
	// capacity (0 = default 256, < 0 disables tracing entirely).
	SlowQuery   time.Duration
	TraceSample float64
	TraceBuffer int
}

// Front is one server: the shared envelope and query lifecycle over a
// Backend, as an http.Handler.
type Front struct {
	cfg     Config
	backend Backend
	// epochs is whether a plan found current at the store's epoch may
	// skip revalidation.  Only Store qualifies: its queries all run on
	// one long-lived store, whose epoch names its contents.  Every
	// gathered store starts at the same epoch, so on Cluster the test
	// would skip the revalidation its plans need.
	epochs  bool
	metrics *obs.Metrics
	tracer  *obs.Tracer     // nil: tracing disabled (TraceBuffer < 0)
	plans   *exec.PlanCache // nil: caching disabled
	sem     chan struct{}   // nil: unlimited concurrency
	qid     atomic.Uint64   // per-request query-ID generator

	// draining flips when graceful shutdown begins: /readyz goes 503 so
	// load balancers and the cluster health prober stop routing here,
	// while liveness stays 200.  In-flight requests still complete.
	draining atomic.Bool

	mux     *http.ServeMux
	handler http.Handler // mux behind panic recovery
}

// New returns the front over b, serving /query, /insert, /healthz,
// /readyz, /metrics and /debug/traces.
func New(cfg Config, b Backend) *Front {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	f := &Front{cfg: cfg, backend: b, metrics: obs.NewMetrics(), plans: exec.NewPlanCache(cfg.PlanCache), mux: http.NewServeMux()}
	_, f.epochs = b.(*Store)
	if cfg.TraceBuffer >= 0 {
		f.tracer = obs.NewTracer(obs.TracerOptions{
			Capacity:      cfg.TraceBuffer,
			SampleRate:    cfg.TraceSample,
			SlowThreshold: cfg.SlowQuery,
		})
	}
	if cfg.MaxConcurrent > 0 {
		f.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	f.Handle("/query", "query", f.admit(f.handleQuery))
	f.Handle("/insert", "insert", f.handleInsert)
	f.HandleFunc("/healthz", b.healthz)
	f.HandleFunc("/readyz", f.handleReadyz)
	f.HandleFunc("/metrics", f.handleMetrics)
	// Completed-trace ring: list + fetch-by-ID.  Unlike pprof this
	// exposes only query shapes and timings, so it is on by default;
	// -trace-buffer -1 turns it (and all tracing) off.
	f.mux.Handle("/debug/traces", obs.TracesHandler(f.tracer, b.shardTraces))
	f.handler = obs.RecoverPanics(cfg.Logger, f.metrics, f.mux)
	return f
}

// ServeHTTP serves the mux behind panic recovery: a panicking handler
// answers 500 and ticks the panics metric.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.handler.ServeHTTP(w, r)
}

// Handle mounts h at pattern inside the request envelope, accounted
// under endpoint.
func (f *Front) Handle(pattern, endpoint string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, f.instrument(endpoint, h))
}

// HandleFunc mounts h at pattern outside the envelope: probes and
// debug endpoints, which stay unaccounted and lock-free.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, h)
}

// BeginDrain marks the server not-ready; ListenAndServe calls it when
// a stop signal arrives, before draining in-flight requests.
func (f *Front) BeginDrain() { f.draining.Store(true) }

// logger returns the front's logger scoped to the request's query ID.
func (f *Front) logger(ctx context.Context) *slog.Logger {
	if qid := obs.QueryIDFromContext(ctx); qid != "" {
		return f.cfg.Logger.With("qid", qid)
	}
	return f.cfg.Logger
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint with the observability envelope: a
// query ID (adopted from an NS-Query-Id header when the caller — the
// coordinator, or a client — sent one, generated otherwise) in the
// context, the in-flight gauge, the request counter by status code,
// the endpoint's latency histogram, and the request's root trace span.
// A trace context arriving in NS-Trace-Id/NS-Parent-Span joins this
// request to the caller's trace (and exempts it from sampling, so the
// coordinator can stitch it later); otherwise a fresh trace starts.
// The trace ID is echoed on the response so clients can fetch
// /debug/traces?id=<it>.  The query ID and span ride the context: the
// cluster client forwards both to the shards.  One log line per
// request, queryable by qid.
func (f *Front) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qid := r.Header.Get(obs.HeaderQueryID)
		if qid == "" {
			qid = fmt.Sprintf("q%06d", f.qid.Add(1))
		}
		var span *obs.Span
		if tid := r.Header.Get(obs.HeaderTraceID); tid != "" {
			span = f.tracer.StartRemoteTrace(tid, r.Header.Get(obs.HeaderParentSpan), endpoint, "")
		} else {
			span = f.tracer.StartTrace(endpoint, "")
		}
		span.SetAttr("qid", qid)
		r = r.WithContext(obs.ContextWithSpan(obs.ContextWithQueryID(r.Context(), qid), span))
		if tid := span.TraceID(); tid != "" {
			w.Header().Set(obs.HeaderTraceID, tid)
		}
		f.metrics.IncInFlight()
		defer f.metrics.DecInFlight()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		d := time.Since(start)
		f.metrics.ObserveRequest(endpoint, sr.status, d)
		span.SetAttr("status", sr.status)
		if sr.status >= 500 {
			span.MarkError()
		}
		span.End()
		f.cfg.Logger.Info("request", "qid", qid, "endpoint", endpoint,
			"method", r.Method, "status", sr.status, "duration", d)
	}
}

// admit admits at most Config.MaxConcurrent requests into h; the rest
// are refused immediately with 503 so overload degrades into fast
// failures instead of a growing queue of stuck connections.
func (f *Front) admit(h http.HandlerFunc) http.HandlerFunc {
	if f.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case f.sem <- struct{}{}:
			defer func() { <-f.sem }()
			h(w, r)
		default:
			writeJSONError(w, http.StatusServiceUnavailable, "server busy: concurrent query limit reached")
		}
	}
}

// jsonError is the error document for governed failures.  Partial is
// always false: the engine discards partial answers rather than
// serving a silently incomplete result.  Shards, on the cluster's 502,
// names the shards of which none could serve the request.
type jsonError struct {
	Error   string                `json:"error"`
	Partial bool                  `json:"partial"`
	Shards  []cluster.ShardStatus `json:"shards,omitempty"`
}

func writeJSONError(w http.ResponseWriter, status int, msg string, shards ...cluster.ShardStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best effort: an encode failure here means the peer already hung up.
	_ = json.NewEncoder(w).Encode(jsonError{Error: msg, Shards: shards})
}

// writeEngineError maps the engine's typed governor errors onto HTTP
// statuses: deadline → 504, resource budget → 503, malformed plan →
// 400, client cancellation → nothing (the peer is gone).  Deadline and
// budget failures count as governor trips — exactly once per failed
// query, since a query reaches here at most once.
func (f *Front) writeEngineError(ctx context.Context, w http.ResponseWriter, err error) {
	logger := f.logger(ctx)
	var budget sparql.ErrBudgetExceeded
	var unsupported sparql.ErrUnsupportedPattern
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		f.metrics.GovernorTrip()
		logger.Warn("governor trip", "kind", "deadline", "err", err)
		writeJSONError(w, http.StatusGatewayTimeout, "query timeout: "+err.Error())
	case errors.Is(err, context.Canceled):
		logger.Info("query canceled by client", "err", err)
	case errors.As(err, &budget):
		f.metrics.GovernorTrip()
		logger.Warn("governor trip", "kind", budget.Kind.String(), "limit", budget.Limit, "err", err)
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &unsupported):
		logger.Warn("unsupported pattern", "err", err)
		writeJSONError(w, http.StatusBadRequest, err.Error())
	default:
		logger.Error("query error", "err", err)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// queryDeadline resolves the effective deadline of a request: the
// server's -query-timeout, lowered (never raised) by an explicit
// timeout= parameter (raw), which accepts a Go duration ("500ms") or a
// bare millisecond count ("500").
func (f *Front) queryDeadline(raw string) (time.Duration, error) {
	d := f.cfg.QueryTimeout
	if raw == "" {
		return d, nil
	}
	td, err := time.ParseDuration(raw)
	if err != nil {
		ms, err2 := strconv.ParseInt(raw, 10, 64)
		if err2 != nil {
			return 0, fmt.Errorf("bad timeout parameter %q (want a duration like 500ms, or milliseconds)", raw)
		}
		td = time.Duration(ms) * time.Millisecond
	}
	if td <= 0 {
		return 0, fmt.Errorf("bad timeout parameter %q (must be positive)", raw)
	}
	if d == 0 || td < d {
		d = td
	}
	return d, nil
}

// Snapshot assembles the /metrics document: the process registry, the
// plan-cache and trace blocks, and the backend's own blocks.  It reads
// atomics only — no store lock — so /metrics answers even while heavy
// queries hold the read side.
func (f *Front) Snapshot() obs.MetricsSnapshot {
	snap := f.metrics.Snapshot()
	snap.PlanCache = f.plans.Stats()
	if f.tracer != nil {
		ts := f.tracer.Stats()
		snap.Traces = &ts
	}
	f.backend.addMetrics(&snap)
	return snap
}

// handleMetrics serves Snapshot: expvar-style JSON by default, or the
// Prometheus text exposition when the request asks for it (Accept:
// text/plain, or ?format=prometheus).  Both views render the same
// snapshot value, so they can never disagree.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := f.Snapshot()
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		f.logger(r.Context()).Warn("response encode failed", "err", err)
	}
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: it answers 503 once a graceful drain has begun (the
// process is alive but should get no new traffic — load balancers and
// the cluster coordinator's health prober key off this), and 200
// otherwise.  Recovery ordering needs no explicit gate: the store is
// open and seeded before the listener exists.  Lock-free.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if f.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status": "draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status": "ready"}`)
}

// buildVersion resolves the binary's module version from the build
// info ("(devel)" for local builds, a module version for released
// ones).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// NewLogger returns the servers' structured stderr logger at the
// -log-level threshold.
func NewLogger(level string) (*slog.Logger, error) {
	lvl, err := parseLogLevel(level)
	if err != nil {
		return nil, err
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return lvl, nil
}

// NewHTTPServer configures the http.Server around the handler: header
// and body read timeouts bound slow clients, the write timeout leaves
// room for the query deadline plus serialization (never less than two
// minutes, so an unlimited deadline does not cut answers off early),
// and idle keep-alive connections are reaped.
func NewHTTPServer(addr string, h http.Handler, queryTimeout time.Duration) *http.Server {
	writeTimeout := 2 * time.Minute
	if queryTimeout > 0 && queryTimeout+30*time.Second > writeTimeout {
		writeTimeout = queryTimeout + 30*time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe serves f on addr until the listener fails or SIGINT
// or SIGTERM arrives, then drains for up to drain (see run).
func (f *Front) ListenAndServe(addr string, drain time.Duration) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	return run(NewHTTPServer(addr, f, f.cfg.QueryTimeout), stop, drain, f.BeginDrain)
}

// run serves until the listener fails or a stop signal arrives, then
// shuts down gracefully: onStop flips readiness (so probers stop
// routing here), the listener closes immediately (new connections are
// refused) and in-flight requests get up to drain to finish.
func run(srv *http.Server, stop <-chan os.Signal, drain time.Duration, onStop func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-stop:
		onStop()
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
