package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// coordConfig is the coordinator server's governance knobs.
type coordConfig struct {
	queryTimeout time.Duration
	maxSteps     int64
	maxRows      int64
	logger       *slog.Logger

	// Tracing knobs, mirroring nsserve: slowQuery logs a structured
	// slow-query line and marks traces always-keep; traceSample is the
	// tail sampler's keep probability; traceBuffer sizes the completed
	// ring (0 = default 256, < 0 disables tracing).
	slowQuery   time.Duration
	traceSample float64
	traceBuffer int
}

// planCacheEntries and maxInsertBytes are nsserve's -plan-cache and
// -max-insert-bytes defaults; the coordinator has no flags for them.
const (
	planCacheEntries = 256
	maxInsertBytes   = 16 << 20
)

// coordServer is the HTTP face of the cluster coordinator: it parses
// queries (or finds them in its plan cache), gathers the relevant
// subgraph from the shards and runs the ordinary single-node engine
// over it.
type coordServer struct {
	coord   *cluster.Coordinator
	cfg     coordConfig
	metrics *obs.Metrics
	plans   *exec.PlanCache
	tracer  *obs.Tracer // nil: tracing disabled (traceBuffer < 0)
	qid     atomic.Uint64

	draining atomic.Bool
	handler  http.Handler
}

func newCoordServer(coord *cluster.Coordinator, cfg coordConfig) *coordServer {
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	s := &coordServer{coord: coord, cfg: cfg, metrics: obs.NewMetrics(), plans: exec.NewPlanCache(planCacheEntries)}
	if cfg.traceBuffer >= 0 {
		s.tracer = obs.NewTracer(obs.TracerOptions{
			Capacity:      cfg.traceBuffer,
			SampleRate:    cfg.traceSample,
			SlowThreshold: cfg.slowQuery,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Fetch-by-ID stitches the shard-side segments (pulled from each
	// shard's /debug/traces by trace ID) into the coordinator's own
	// snapshot, so one URL shows the whole distributed tree.
	mux.Handle("/debug/traces", obs.TracesHandler(s.tracer, func(r *http.Request, id string) []obs.TraceSnapshot {
		return s.coord.FetchShardTraces(r.Context(), id)
	}))
	s.handler = obs.RecoverPanics(cfg.logger, s.metrics, mux)
	return s
}

func (s *coordServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// BeginDrain flips /readyz to 503; main calls it on a stop signal.
func (s *coordServer) BeginDrain() { s.draining.Store(true) }

// instrument gives each request a query ID, a scoped logger, the
// request/latency metrics, and the root span of its distributed trace
// — the same envelope nsserve uses.  The query ID and span ride the
// request context: the cluster client forwards both to the shards
// (NS-Query-Id, NS-Trace-Id/NS-Parent-Span), so shard logs and traces
// correlate with this coordinator's.  The trace ID is echoed on the
// response for clients.
func (s *coordServer) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qid := fmt.Sprintf("q%06d", s.qid.Add(1))
		var span *obs.Span
		if tid := r.Header.Get(obs.HeaderTraceID); tid != "" {
			span = s.tracer.StartRemoteTrace(tid, r.Header.Get(obs.HeaderParentSpan), endpoint, "")
		} else {
			span = s.tracer.StartTrace(endpoint, "")
		}
		span.SetAttr("qid", qid)
		ctx := obs.ContextWithQueryID(r.Context(), qid)
		ctx = obs.ContextWithSpan(ctx, span)
		r = r.WithContext(ctx)
		if tid := span.TraceID(); tid != "" {
			w.Header().Set(obs.HeaderTraceID, tid)
		}
		s.metrics.IncInFlight()
		defer s.metrics.DecInFlight()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		d := time.Since(start)
		s.metrics.ObserveRequest(endpoint, sr.status, d)
		span.SetAttr("status", sr.status)
		if sr.status >= 500 {
			span.MarkError()
		}
		span.End()
		s.cfg.logger.Info("request", "qid", qid, "endpoint", endpoint,
			"method", r.Method, "status", sr.status, "duration", d)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// queryDeadline mirrors nsserve's: -query-timeout, lowered (never
// raised) by an explicit timeout= parameter (raw).
func (s *coordServer) queryDeadline(raw string) (time.Duration, error) {
	d := s.cfg.queryTimeout
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

func writeJSONError(w http.ResponseWriter, status int, msg string, shards []cluster.ShardStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": msg, "partial": false, "shards": shards,
	})
}

// failedShards filters the status block down to the failing entries;
// nil when every shard answered.
func failedShards(statuses []cluster.ShardStatus) []cluster.ShardStatus {
	var out []cluster.ShardStatus
	for _, st := range statuses {
		if st.Error != "" {
			out = append(out, st)
		}
	}
	return out
}

func (s *coordServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	span := obs.SpanFromContext(r.Context())
	params := r.URL.Query()
	qText := params.Get("q")
	if qText == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	// A cached plan brings its parse: the gather needs the query's
	// triple patterns before there is a store to validate the plan on.
	syntax := params.Get("syntax")
	key := exec.PlanKey(syntax, qText)
	cached := s.plans.Get(key)
	var parsed parser.Parsed
	if cached != nil {
		parsed = cached.Parsed
	} else {
		prsp := span.StartChild("parse", "")
		var err error
		if parsed, err = s.plans.Parse(syntax, qText); err != nil {
			prsp.SetStatus("error")
			prsp.SetAttr("error", err.Error())
			prsp.End()
			http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
			return
		}
		prsp.End()
	}
	deadline, err := s.queryDeadline(params.Get("timeout"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// Scatter-gather: pull the triple patterns' matches from the
	// shards, one request each, into a per-query local store (exact for every operator —
	// see internal/cluster), then run the single-node engine on it
	// under the remaining budget.
	patterns := sparql.TriplePatterns(parsed.Pattern)
	g, statuses, partial := s.coord.Gather(ctx, patterns)
	failed := failedShards(statuses)
	if len(failed) == len(statuses) && len(patterns) > 0 {
		// Nothing answered: there is no subset of the data to degrade
		// to, so this is an error, not a partial result.
		s.coord.NoteResult("failed")
		s.cfg.logger.Warn("all shards failed", "shards", len(statuses))
		writeJSONError(w, http.StatusBadGateway, "no shard reachable", failed)
		return
	}
	if partial {
		s.cfg.logger.Warn("partial gather", "failed_shards", len(failed))
	}

	bud := sparql.NewBudget(ctx)
	if s.cfg.maxSteps > 0 {
		bud.WithMaxSteps(s.cfg.maxSteps)
	}
	if s.cfg.maxRows > 0 {
		bud.WithMaxRows(s.cfg.maxRows)
	}
	// Every query runs on a newly gathered subgraph, and a plan is
	// correct on any of them: a cached plan is revalidated on this one
	// (its leaf counts here are the cluster's, since every match of a
	// query pattern is gathered) and re-prepared from its parse only
	// when they drifted; an uncached query is prepared on it and cached.
	psp := span.StartChild("plan", "")
	var cp *exec.CachedPlan
	var outcome exec.CacheOutcome
	if cached != nil {
		cp, outcome = s.plans.Revalidate(key, cached, g)
	} else {
		cp, outcome = s.plans.Add(key, parsed, g), exec.CacheMiss
	}
	psp.SetAttr("cache", string(outcome))
	compiled := cp.Compiled
	if ex := compiled.Prepared.Explain(); ex != nil {
		psp.SetAttr("planner", ex.Planner)
		psp.SetAttr("probes", ex.Probes)
		psp.SetAttr("estimate", ex.Estimate)
	}
	psp.End()

	// Every query is profiled, like nsserve: the counters feed the
	// replan metric, the per-operator trace spans, and the slow-query
	// log's hot-span list.  One snapshot, taken when the engine
	// returns, serves all three.
	prof := obs.NewNode("query", obs.QueryIDFromContext(ctx))
	esp := span.StartChild("exec", "")
	ans, err := exec.Run(g, compiled, bud, plan.Options{Prof: prof, Trace: esp})
	if err != nil {
		esp.SetStatus("error")
		esp.SetAttr("error", err.Error())
	}
	esp.End()
	snap := prof.Snapshot()
	esp.AttachProfile(snap)
	var encode *obs.Profile // the encode stage as a profile node, for the hot-span list
	defer func() {
		s.metrics.AddPlannerReplans(snap.Sum(func(n *obs.Profile) int64 { return n.Replans }))
		if d := s.cfg.slowQuery; d > 0 {
			if elapsed := time.Since(start); elapsed >= d {
				s.logSlowQuery(r, qText, compiled, snap, encode, elapsed)
			}
		}
	}()
	if err != nil {
		s.writeEngineError(w, err)
		return
	}

	// The same writer nsserve uses, so a cluster and a single node
	// holding the same triples answer with the same bytes up to the
	// degradation block.
	body := exec.NewResultWriter()
	defer body.Release()
	nsp := span.StartChild("encode", "")
	encStart := time.Now()
	var st exec.EncodeStats
	contentType := "application/sparql-results+json"
	switch {
	case ans.Bool != nil:
		doc := map[string]any{"boolean": *ans.Bool, "partial": partial}
		if partial {
			doc["shards"] = failed
		}
		err = json.NewEncoder(body).Encode(doc)
		st.Bytes = len(body.Bytes())
	case compiled.Construct != nil:
		contentType = "text/plain; charset=utf-8"
		st, err = body.WriteTriples(ans.Rows, ans.Template, bud)
	default:
		// "partial" is always present; "shards" names the failing
		// shards when there are any.
		extra := []exec.Field{{Name: "partial", Value: partial}}
		if partial {
			extra = append(extra, exec.Field{Name: "shards", Value: failed})
		}
		st, err = body.WriteBindings(ans.Rows, extra...)
	}
	encode = st.Record(nsp, s.metrics, time.Since(encStart), err)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	h := w.Header()
	if partial && compiled.Construct != nil {
		// CONSTRUCT has no JSON envelope; the degradation flag rides in
		// a header instead.
		h.Set("X-Partial", "true")
	}
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body.Bytes())))
	if _, err := w.Write(body.Bytes()); err != nil {
		s.cfg.logger.Warn("response write failed", "err", err)
	}
}

// logSlowQuery mirrors nsserve's structured slow-query line: query
// text, trace ID (fetch the stitched distributed tree from
// /debug/traces), the planner's Explain JSON, and the hottest stages
// (the profile's operators and the result encoding).
func (s *coordServer) logSlowQuery(r *http.Request, qText string, compiled exec.Compiled, snap, encode *obs.Profile, elapsed time.Duration) {
	args := []any{"query", qText, "duration", elapsed}
	if tid := obs.SpanFromContext(r.Context()).TraceID(); tid != "" {
		args = append(args, "trace_id", tid)
	}
	if ex := compiled.Prepared.Explain(); ex != nil {
		if js, err := json.Marshal(ex); err == nil {
			args = append(args, "plan", string(js))
		}
	}
	args = append(args, "hot_spans", snap.Hottest(3, encode))
	s.cfg.logger.Warn("slow query", args...)
}

// writeEngineError maps engine failures on the gathered store the same
// way nsserve does: deadline → 504, budget → 503, bad plan → 400.
func (s *coordServer) writeEngineError(w http.ResponseWriter, err error) {
	var budget sparql.ErrBudgetExceeded
	var unsupported sparql.ErrUnsupportedPattern
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.GovernorTrip()
		writeJSONError(w, http.StatusGatewayTimeout, "query timeout: "+err.Error(), nil)
	case errors.Is(err, context.Canceled):
		// client gone
	case errors.As(err, &budget):
		s.metrics.GovernorTrip()
		writeJSONError(w, http.StatusServiceUnavailable, err.Error(), nil)
	case errors.As(err, &unsupported):
		writeJSONError(w, http.StatusBadRequest, err.Error(), nil)
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error(), nil)
	}
}

func (s *coordServer) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Drain the capped body before parsing: a cap hit mid-line must
	// surface as 413, not as a parse error on the truncated line.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInsertBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("insert body exceeds %d bytes", tooBig.Limit), nil)
			return
		}
		http.Error(w, "read error: "+err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := rdf.ReadGraph(bytes.NewReader(data))
	if err != nil {
		http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if s.cfg.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.queryTimeout)
		defer cancel()
	}
	added, statuses, failed := s.coord.Insert(ctx, delta.Triples())
	failedList := failedShards(statuses)
	if failed && added == 0 && len(failedList) == len(statuses) {
		writeJSONError(w, http.StatusBadGateway, "no shard accepted the insert", failedList)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	doc := map[string]any{"added": added, "partial": failed}
	if failed {
		doc["shards"] = failedList
	}
	_ = json.NewEncoder(w).Encode(doc)
}

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status": "ok", "version": %q, "shards": %d}`+"\n",
		buildVersion(), s.coord.NumShards())
}

func (s *coordServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status": "draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status": "ready"}`)
}

// handleMetrics serves the process registry plus the cluster block:
// per-shard scan/retry/hedge/ejection counters, scan bytes and latency
// histograms.  JSON by default; Prometheus text exposition when the request
// negotiates it (Accept: text/plain or ?format=prometheus).
func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	cs := s.coord.Stats()
	snap.Cluster = &cs
	snap.PlanCache = s.plans.Stats()
	if s.tracer != nil {
		ts := s.tracer.Stats()
		snap.Traces = &ts
	}
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snap)
}

func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
