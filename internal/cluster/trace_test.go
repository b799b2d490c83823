package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// tracedShard wraps a shard server with the minimal nsserve-style
// tracing envelope: /scan adopts the incoming NS-Trace-Id /
// NS-Parent-Span pair into a local "scan" span (recording the
// forwarded NS-Query-Id), and /debug/traces serves the shard's ring so
// the coordinator can stitch.
func tracedShard(t *testing.T, g *rdf.Graph, wrap func(http.Handler) http.Handler) (*httptest.Server, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 1})
	inner := func(h http.Handler) http.Handler {
		traced := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/debug/traces" {
				obs.TracesHandler(tracer, nil).ServeHTTP(w, r)
				return
			}
			if r.URL.Path != "/scan" {
				h.ServeHTTP(w, r)
				return
			}
			sp := tracer.StartRemoteTrace(r.Header.Get(obs.HeaderTraceID),
				r.Header.Get(obs.HeaderParentSpan), "scan", "")
			if qid := r.Header.Get(obs.HeaderQueryID); qid != "" {
				sp.SetAttr("qid", qid)
			}
			defer sp.End()
			h.ServeHTTP(w, r)
		})
		if wrap != nil {
			return wrap(traced)
		}
		return traced
	}
	return shardServer(t, g, inner), tracer
}

// TestGatherTraceStitching is the end-to-end fault-injection check:
// one query against two misbehaving shards (shard 0 fails its first
// scan attempt, shard 1 stalls its primary so the hedge wins) must
// yield ONE stitched trace showing the gather span, all four rpc.scan
// attempts with their outcomes — error then winner on shard 0, a
// cancelled loser and a hedged winner on shard 1 — and the shard-side
// scan spans carrying the forwarded query ID.
func TestGatherTraceStitching(t *testing.T) {
	_, parts := seedGraphs(2, 120, 7)

	// Shard 0: first /scan attempt 500s, the retry succeeds.
	var s0Calls atomic.Int64
	srv0, _ := tracedShard(t, parts[0], func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" && s0Calls.Add(1) == 1 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	// Shard 1: the primary stalls past the hedge delay; the hedge
	// (second request) answers immediately and must win.
	var s1Calls atomic.Int64
	srv1, _ := tracedShard(t, parts[1], func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" && s1Calls.Add(1) == 1 {
				stall(r, 2*time.Second)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	opts := fastOpts([]string{srv0.URL, srv1.URL})
	opts.DisableHedging = false
	opts.HedgeDelay = 30 * time.Millisecond
	opts.ScanTimeout = 5 * time.Second
	c := mustCoordinator(t, opts)

	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 2})
	root := tracer.StartTrace("query", "")
	traceID := root.TraceID()
	ctx := obs.ContextWithSpan(context.Background(), root)
	ctx = obs.ContextWithQueryID(ctx, "q000007")

	_, patterns := gatherPatterns(t, "(?x knows ?y)")
	_, statuses, partial := c.Gather(ctx, patterns)
	if partial {
		t.Fatalf("query should recover, not degrade: %+v", statuses)
	}
	root.End()

	snap, ok := tracer.Get(traceID)
	if !ok {
		t.Fatal("coordinator trace missing")
	}
	for _, remote := range c.FetchShardTraces(context.Background(), traceID) {
		snap.Merge(remote)
	}

	type rpc struct {
		outcome, status string
		shard           any
		hedge           bool
	}
	var rpcs []rpc
	gathers, shardScans, qids := 0, 0, 0
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "gather":
			gathers++
		case "rpc.scan":
			outcome, _ := sp.Attrs["outcome"].(string)
			hedge, _ := sp.Attrs["hedge"].(bool)
			rpcs = append(rpcs, rpc{outcome: outcome, status: sp.Status, shard: sp.Attrs["shard"], hedge: hedge})
		case "scan":
			shardScans++
			if _, ok := sp.Attrs["shard"]; !ok {
				t.Fatalf("fetched shard span lacks the shard annotation: %+v", sp)
			}
			if sp.Attrs["qid"] == "q000007" {
				qids++
			}
		}
	}
	if gathers != 1 {
		t.Fatalf("got %d gather spans, want 1", gathers)
	}
	if len(rpcs) != 4 {
		t.Fatalf("got %d rpc.scan spans, want 4 (error+winner, cancelled+winner): %+v", len(rpcs), rpcs)
	}
	count := func(pred func(rpc) bool) int {
		n := 0
		for _, r := range rpcs {
			if pred(r) {
				n++
			}
		}
		return n
	}
	if count(func(r rpc) bool { return r.outcome == "winner" }) != 2 {
		t.Fatalf("want 2 winners: %+v", rpcs)
	}
	if count(func(r rpc) bool { return r.outcome == "error" && r.status == "error" }) != 1 {
		t.Fatalf("want 1 errored attempt (shard 0's first): %+v", rpcs)
	}
	if count(func(r rpc) bool { return r.outcome == "cancelled" && r.status == "cancelled" }) != 1 {
		t.Fatalf("want 1 cancelled loser (shard 1's stalled primary): %+v", rpcs)
	}
	if count(func(r rpc) bool { return r.hedge && r.outcome == "winner" }) != 1 {
		t.Fatalf("the shard 1 winner should be the hedge lane: %+v", rpcs)
	}
	// Both shards answered a traced /scan with the forwarded query ID.
	if shardScans < 2 || qids < 2 {
		t.Fatalf("shard-side spans incomplete: %d scans, %d with qid", shardScans, qids)
	}
	// The stitched tree renders with the shard spans under the rpcs.
	tree := snap.Tree()
	for _, want := range []string{"query", "gather", "rpc.scan", "outcome=winner", "outcome=cancelled"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("stitched tree missing %q:\n%s", want, tree)
		}
	}
}

// TestScanHeadersUntracedNoOp: without a span in context, scans carry
// no trace headers and the query ID header only when a qid is present.
func TestScanHeadersUntracedNoOp(t *testing.T) {
	var sawTrace, sawQID atomic.Bool
	_, parts := seedGraphs(1, 30, 3)
	srv := shardServer(t, parts[0], func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" {
				if r.Header.Get(obs.HeaderTraceID) != "" {
					sawTrace.Store(true)
				}
				if r.Header.Get(obs.HeaderQueryID) != "" {
					sawQID.Store(true)
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	c := mustCoordinator(t, fastOpts([]string{srv.URL}))
	_, patterns := gatherPatterns(t, "(?x knows ?y)")
	_, _, partial := c.Gather(context.Background(), patterns)
	if partial {
		t.Fatal("gather failed")
	}
	if sawTrace.Load() || sawQID.Load() {
		t.Fatal("untraced gather must not emit trace or qid headers")
	}
}
