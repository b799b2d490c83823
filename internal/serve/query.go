package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// sparqlJSON is the media type of SELECT and ASK answers.
const sparqlJSON = "application/sparql-results+json"

// queryOutcome is what evalQuery leaves for handleQuery to finish once
// the store is released: whether body holds a response to send, and
// the request's one profile snapshot for the metrics and the
// slow-query log (nil when the query never reached the engine).
type queryOutcome struct {
	ok          bool
	contentType string
	partial     bool // a degraded CONSTRUCT answer: flagged in X-Partial
	plan        *exec.CachedPlan
	profile     *obs.Profile
	encode      *obs.Profile // the encode stage as a profile node, for the hot-span list
}

func (f *Front) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query()
	qText := params.Get("q")
	if qText == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	deadline, err := f.queryDeadline(params.Get("timeout"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	// A cached plan brings its parse; anything else is parsed before
	// the backend hands out a store, because the cluster's gather needs
	// the query's triple patterns first.
	syntax := params.Get("syntax")
	key := exec.PlanKey(syntax, qText)
	cached := f.plans.Get(key)
	var parsed parser.Parsed
	if cached != nil {
		parsed = cached.Parsed
	} else {
		prsp := obs.SpanFromContext(r.Context()).StartChild("parse", "")
		if parsed, err = f.plans.Parse(syntax, qText); err != nil {
			prsp.SetStatus("error")
			prsp.SetAttr("error", err.Error())
			prsp.End()
			http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
			return
		}
		prsp.End()
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	body := exec.NewResultWriter()
	defer body.Release()
	out := f.evalQuery(ctx, w, key, cached, parsed, params.Get("profile") == "1", body)
	if out.ok {
		// The whole document is in body and the store is released: a
		// client that reads slowly, or not at all, holds up nobody.
		h := w.Header()
		if out.partial {
			h.Set("X-Partial", "true")
		}
		h.Set("Content-Type", out.contentType)
		h.Set("Content-Length", strconv.Itoa(len(body.Bytes())))
		if _, err := w.Write(body.Bytes()); err != nil {
			f.logger(ctx).Warn("response write failed", "err", err)
		}
	}
	if out.profile == nil {
		return
	}
	if out.profile.Sum(func(n *obs.Profile) int64 { return n.PoolInline }) > 0 {
		f.metrics.PoolSaturation()
	}
	f.metrics.AddPlannerReplans(out.profile.Sum(func(n *obs.Profile) int64 { return n.Replans }))
	if d := f.cfg.SlowQuery; d > 0 {
		if elapsed := time.Since(start); elapsed >= d {
			f.logSlowQuery(ctx, qText, out, elapsed)
		}
	}
}

// evalQuery takes the query's store from the backend, plans, runs and
// encodes the query on it, and returns with the store released.  A
// successful answer is left in body for the caller to send; a failure
// has already been written to w (error documents are a few hundred
// bytes and sit in net/http's buffer until the handler returns, so they
// cannot hold the store either).
func (f *Front) evalQuery(ctx context.Context, w http.ResponseWriter, key string, cached *exec.CachedPlan, parsed parser.Parsed, wantProfile bool, body *exec.ResultWriter) (out queryOutcome) {
	v, ok := f.backend.view(ctx, f, w, parsed)
	if !ok {
		return out
	}
	if v.release != nil {
		defer v.release()
	}
	span := obs.SpanFromContext(ctx)

	// Validate and prepare on the view: preparation and validation read
	// its index counts, and a plan validated at an epoch must describe
	// the contents the query will run against.  Encoding stays inside
	// it too: the rows are IDs until the dictionary resolves them.
	psp := span.StartChild("plan", "")
	cp, outcome := f.lookupPlan(key, cached, parsed, v.store)
	psp.SetAttr("cache", string(outcome))
	explain := cp.Compiled.Prepared.Explain()
	if explain != nil {
		psp.SetAttr("planner", explain.Planner)
		psp.SetAttr("probes", explain.Probes)
		psp.SetAttr("estimate", explain.Estimate)
	}
	psp.End()
	out.plan = cp

	bud := sparql.NewBudget(ctx)
	if f.cfg.MaxSteps > 0 {
		bud.WithMaxSteps(f.cfg.MaxSteps)
	}
	if f.cfg.MaxRows > 0 {
		bud.WithMaxRows(f.cfg.MaxRows)
	}
	// Every query is profiled: the per-operator counters cost one
	// atomic add per operator (not per row), and the pool-saturation
	// metric needs the pool counters even when the client did not ask
	// for the profile block.
	prof := obs.NewNode("query", obs.QueryIDFromContext(ctx))
	esp := span.StartChild("exec", "")
	ans, err := exec.Run(v.store, cp.Compiled, bud, plan.Options{
		Parallel:            f.cfg.Parallel,
		MinParallelEstimate: f.cfg.MinParallelEstimate,
		MinPartition:        f.cfg.MinPartition,
		Prof:                prof,
		Trace:               esp,
	})
	if err != nil {
		esp.SetStatus("error")
		esp.SetAttr("error", err.Error())
	}
	esp.End()
	// The request's one snapshot, bridged into the trace as
	// per-operator child spans whatever the outcome — a failed query's
	// partial profile is exactly what the trace is for.
	out.profile = prof.Snapshot()
	esp.AttachProfile(out.profile)
	if err != nil {
		f.writeEngineError(ctx, w, err)
		return out
	}

	// The backend's fields (the cluster's degradation block) lead every
	// JSON answer; the profile block follows when asked for.
	nsp := span.StartChild("encode", "")
	encStart := time.Now()
	var st exec.EncodeStats
	out.contentType = sparqlJSON
	switch {
	case ans.Bool != nil:
		doc := map[string]any{"boolean": *ans.Bool}
		for _, fl := range v.fields {
			doc[fl.Name] = fl.Value
		}
		if wantProfile {
			doc["profile"] = out.profile
			doc["plan"] = explain
		}
		err = json.NewEncoder(body).Encode(doc)
		st.Bytes = len(body.Bytes())
	case cp.Compiled.Construct != nil:
		// CONSTRUCT output is N-Triples text; there is no JSON envelope
		// to carry a profile block (use nsq -stats for profiled
		// CONSTRUCT runs), and a degradation flag rides in X-Partial.
		out.contentType = "text/plain; charset=utf-8"
		out.partial = v.partial
		st, err = body.WriteTriples(ans.Rows, ans.Template, bud)
	default:
		extra := v.fields
		if wantProfile {
			extra = append(extra, exec.Field{Name: "profile", Value: out.profile})
			if explain != nil {
				extra = append(extra, exec.Field{Name: "plan", Value: explain})
			}
		}
		st, err = body.WriteBindings(ans.Rows, extra...)
	}
	out.encode = st.Record(nsp, f.metrics, time.Since(encStart), err)
	if err != nil {
		f.writeEngineError(ctx, w, err)
		return out
	}
	out.ok = true
	return out
}

// lookupPlan settles the query's plan on g, the store it is about to
// run on.  An uncached query is prepared on g and cached (a miss).  A
// cached plan is revalidated on g (exec.PlanCache.Revalidate): a hit
// while its leaf counts stay inside the re-plan band, re-prepared from
// the cached parse (a refresh) once one leaves it.  On a Store a plan
// last found current at g's epoch is a hit at the cost of one atomic
// load: the epoch cannot move while the view is held.
func (f *Front) lookupPlan(key string, cached *exec.CachedPlan, parsed parser.Parsed, g rdf.Store) (*exec.CachedPlan, exec.CacheOutcome) {
	switch {
	case cached == nil:
		return f.plans.Add(key, parsed, g), exec.CacheMiss
	case f.epochs && cached.CurrentAt(g.Epoch()):
		f.plans.Record(exec.CacheHit)
		return cached, exec.CacheHit
	default:
		return f.plans.Revalidate(key, cached, g)
	}
}

// logSlowQuery emits the structured slow-query line: the query text,
// the trace ID to fetch the full span tree with, the planner's Explain
// JSON, and the hottest stages — the profile's operators and the
// result encoding — enough to diagnose most slow queries from the log
// alone, with /debug/traces as the drill-down.
func (f *Front) logSlowQuery(ctx context.Context, qText string, out queryOutcome, elapsed time.Duration) {
	args := []any{"query", qText, "duration", elapsed}
	if tid := obs.SpanFromContext(ctx).TraceID(); tid != "" {
		args = append(args, "trace_id", tid)
	}
	if ex := out.plan.Compiled.Prepared.Explain(); ex != nil {
		if js, err := json.Marshal(ex); err == nil {
			args = append(args, "plan", string(js))
		}
	}
	args = append(args, "hot_spans", out.profile.Hottest(3, out.encode))
	f.logger(ctx).Warn("slow query", args...)
}

// handleInsert reads and parses an N-Triples body under the
// Config.MaxInsertBytes cap, then hands it to the backend.
func (f *Front) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body io.Reader = r.Body
	if f.cfg.MaxInsertBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, f.cfg.MaxInsertBytes)
	}
	// Drain the capped body before parsing: a cap hit mid-line must
	// surface as 413, not as a parse error on the truncated line.
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("insert body exceeds %d bytes", tooBig.Limit))
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
	f.backend.insert(r.Context(), f, w, delta)
}
