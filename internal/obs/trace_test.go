package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerAndSpanNoOps: the entire tracing API must be callable
// on nil receivers — that is how tracing is disabled.
func TestNilTracerAndSpanNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("query", "")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	sp = tr.StartRemoteTrace("abc", "def", "scan", "")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans for remote traces too")
	}
	child := sp.StartChild("plan", "")
	child.SetAttr("k", 1)
	child.SetStatus("error")
	child.MarkError()
	child.MarkPartial()
	child.AttachProfile(&Profile{Op: "scan"})
	child.End()
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if got := sp.ID(); got != "" {
		t.Fatalf("nil span ID = %q", got)
	}
	if _, ok := tr.Get("abc"); ok {
		t.Fatal("nil tracer Get must miss")
	}
	if tr.List(0) != nil {
		t.Fatal("nil tracer List must be empty")
	}
	if s := tr.Stats(); s != (TraceStats{}) {
		t.Fatalf("nil tracer Stats = %+v", s)
	}
	// A context carrying a nil span round-trips as nil.
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span should not be stored in context")
	}
}

// TestTailRetention: slow, errored and partial traces are always kept;
// unremarkable ones follow SampleRate.
func TestTailRetention(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: time.Nanosecond, Seed: 1})
	sp := tr.StartTrace("query", "")
	id := sp.TraceID()
	time.Sleep(time.Microsecond)
	sp.End() // slower than 1ns: always kept
	if _, ok := tr.Get(id); !ok {
		t.Fatal("slow trace was not kept")
	}

	tr = NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: -1, Seed: 1})
	sp = tr.StartTrace("query", "")
	fastID := sp.TraceID()
	sp.End() // not slow (threshold disabled), sample rate 0 → dropped
	if _, ok := tr.Get(fastID); ok {
		t.Fatal("unremarkable trace survived SampleRate 0")
	}

	sp = tr.StartTrace("query", "")
	errID := sp.TraceID()
	sp.MarkError()
	sp.End()
	snap, ok := tr.Get(errID)
	if !ok || !snap.Error {
		t.Fatalf("errored trace not kept/flagged: ok=%v snap=%+v", ok, snap)
	}

	sp = tr.StartTrace("query", "")
	partID := sp.TraceID()
	sp.MarkPartial()
	sp.End()
	snap, ok = tr.Get(partID)
	if !ok || !snap.Partial {
		t.Fatalf("partial trace not kept/flagged: ok=%v snap=%+v", ok, snap)
	}

	st := tr.Stats()
	if st.Started != 3 || st.Kept != 2 || st.SampledOut != 1 {
		t.Fatalf("stats = %+v, want started 3 kept 2 sampled_out 1", st)
	}

	// SampleRate 1 keeps everything.
	tr = NewTracer(TracerOptions{SampleRate: 1, SlowThreshold: -1, Seed: 1})
	sp = tr.StartTrace("query", "")
	id = sp.TraceID()
	sp.End()
	if _, ok := tr.Get(id); !ok {
		t.Fatal("SampleRate 1 dropped a trace")
	}
}

// TestRemoteAdoptedAlwaysKept: a shard must retain what its coordinator
// may come fetching, regardless of sampling.
func TestRemoteAdoptedAlwaysKept(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: -1, Seed: 1})
	sp := tr.StartRemoteTrace("cafe0000cafe0000", "parent01", "scan", "")
	if sp.TraceID() != "cafe0000cafe0000" {
		t.Fatalf("remote trace did not adopt the ID: %q", sp.TraceID())
	}
	sp.End()
	snap, ok := tr.Get("cafe0000cafe0000")
	if !ok || !snap.Remote {
		t.Fatalf("remote-adopted trace not kept: ok=%v snap=%+v", ok, snap)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Parent != "parent01" {
		t.Fatalf("remote parent not preserved: %+v", snap.Spans)
	}
	// Empty trace ID falls back to a fresh local trace.
	sp = tr.StartRemoteTrace("", "", "scan", "")
	if sp.TraceID() == "" {
		t.Fatal("empty remote ID should start a local trace")
	}
	sp.End()
}

// TestGetMergesSegments: one shard serves several requests of the same
// distributed trace (one /scan per attempt); Get folds them together.
func TestGetMergesSegments(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 1})
	for i := 0; i < 3; i++ {
		sp := tr.StartRemoteTrace("feed0000feed0000", "p", "scan", "")
		if i == 2 {
			sp.MarkPartial()
		}
		sp.End()
	}
	snap, ok := tr.Get("feed0000feed0000")
	if !ok {
		t.Fatal("merged trace not found")
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3", len(snap.Spans))
	}
	if !snap.Partial {
		t.Fatal("merge must OR the partial flag")
	}
}

// TestRingEviction: the ring is bounded; the oldest entries are
// overwritten and counted.
func TestRingEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 2, SampleRate: 1, Seed: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		sp := tr.StartTrace("query", "")
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("trace %s missing after eviction", id)
		}
	}
	st := tr.Stats()
	if st.Evicted != 1 || st.Buffered != 2 {
		t.Fatalf("stats = %+v, want evicted 1 buffered 2", st)
	}
	if got := len(tr.List(0)); got != 2 {
		t.Fatalf("List returned %d traces, want 2", got)
	}
	if got := len(tr.List(1)); got != 1 {
		t.Fatalf("List(1) returned %d traces, want 1", got)
	}
}

// TestSpanTreeAndAttrs: children, status, attributes and the rendered
// tree.
func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 1})
	root := tr.StartTrace("query", "")
	id := root.TraceID()
	plan := root.StartChild("plan", "")
	plan.SetAttr("probes", 12)
	plan.End()
	ex := root.StartChild("exec", "")
	ex.SetStatus("error")
	ex.End()
	ex.End() // idempotent
	root.End()

	snap, ok := tr.Get(id)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	tree := snap.Tree()
	for _, want := range []string{"trace " + id, "query", "plan", "probes=12", "exec", "status=error"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// Children indent under the root.
	if !strings.Contains(tree, "\n    plan") {
		t.Fatalf("plan not indented under query:\n%s", tree)
	}
}

// TestAttachProfile: the profile tree bridges into per-operator spans
// with counter attributes, even after the attaching span has ended.
func TestAttachProfile(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 1})
	root := tr.StartTrace("query", "")
	id := root.TraceID()
	ex := root.StartChild("exec", "")
	ex.End()
	ex.AttachProfile(&Profile{
		Op: "join", Detail: "hash", WallNS: 420, RowsIn: 10, RowsOut: 4,
		Children: []*Profile{{Op: "scan", WallNS: 100, RowsOut: 10, RangeScans: 2}},
	})
	root.End()

	snap, ok := tr.Get(id)
	if !ok {
		t.Fatal("trace missing")
	}
	var join, scan *SpanSnapshot
	for i := range snap.Spans {
		switch snap.Spans[i].Name {
		case "op:join":
			join = &snap.Spans[i]
		case "op:scan":
			scan = &snap.Spans[i]
		}
	}
	if join == nil || scan == nil {
		t.Fatalf("profile spans missing: %+v", snap.Spans)
	}
	if join.DurationNS != 420 || join.Attrs["rows_out"] != int64(4) {
		t.Fatalf("join span = %+v", join)
	}
	if scan.Parent != join.ID {
		t.Fatal("profile children must nest under their parent operator")
	}
	if scan.Attrs["range_scans"] != int64(2) {
		t.Fatalf("scan attrs = %+v", scan.Attrs)
	}
	if _, ok := scan.Attrs["dedup_hits"]; ok {
		t.Fatal("zero counters must be omitted")
	}
}

// TestTracerConcurrent exercises the tracer under parallel traces for
// the race detector.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 8, SampleRate: 0.5, Seed: 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tr.StartTrace("query", "")
				c := sp.StartChild("exec", "")
				c.SetAttr("j", j)
				c.End()
				if j%5 == 0 {
					sp.MarkError()
				}
				sp.End()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.List(0)
				tr.Stats()
				tr.Get("nope")
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Started != 400 || st.Kept+st.SampledOut != 400 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

// TestQueryIDContext round-trips the cross-process query ID.
func TestQueryIDContext(t *testing.T) {
	ctx := context.Background()
	if got := QueryIDFromContext(ctx); got != "" {
		t.Fatalf("empty context yielded qid %q", got)
	}
	ctx = ContextWithQueryID(ctx, "q000042")
	if got := QueryIDFromContext(ctx); got != "q000042" {
		t.Fatalf("qid = %q", got)
	}
	if ctx2 := ContextWithQueryID(ctx, ""); QueryIDFromContext(ctx2) != "q000042" {
		t.Fatal("empty qid must not overwrite")
	}
}

// TestTracesHandler drives the /debug/traces endpoint: listing,
// fetch-by-ID, stitching and the error paths.
func TestTracesHandler(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 1})
	sp := tr.StartTrace("query", "")
	id := sp.TraceID()
	sp.End()

	stitched := TraceSnapshot{
		TraceID: id,
		Spans:   []SpanSnapshot{{ID: "remote01", Name: "scan"}},
	}
	h := TracesHandler(tr, func(r *http.Request, reqID string) []TraceSnapshot {
		if reqID == id {
			return []TraceSnapshot{stitched}
		}
		return nil
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Listing.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id || list.Traces[0].Root != "query" {
		t.Fatalf("listing = %+v", list)
	}

	// Fetch by ID merges the stitched shard segment.
	resp, err = http.Get(srv.URL + "?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	var snap TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Spans) != 2 {
		t.Fatalf("stitched snapshot has %d spans, want 2", len(snap.Spans))
	}

	// Unknown ID without a stitch hit is a 404.
	resp, err = http.Get(srv.URL + "?id=deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace returned %d", resp.StatusCode)
	}

	// Non-GET is a 405.
	resp, err = http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST returned %d", resp.StatusCode)
	}
}

// TestTracesHandlerStitchOnlyRemote: the coordinator can serve a trace
// it sampled out locally when a shard still holds its segment.
func TestTracesHandlerStitchOnlyRemote(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: -1, Seed: 1})
	h := TracesHandler(tr, func(r *http.Request, id string) []TraceSnapshot {
		return []TraceSnapshot{{TraceID: id, Spans: []SpanSnapshot{{ID: "s1", Name: "scan"}}}}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?id=0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remote-only fetch returned %d", resp.StatusCode)
	}
	var snap TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.TraceID != "0123456789abcdef" || len(snap.Spans) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
