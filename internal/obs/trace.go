// Distributed tracing: the cross-process sibling of the per-query
// profile tree.  A Profile lives and dies with one HTTP reply; a trace
// survives the request in a bounded ring buffer so that a slow cluster
// query can be attributed after the fact — to a shard retry, a hedged
// scan, a WAL fsync stall, or a mid-query replan — by fetching
// /debug/traces?id=<trace-id> from the coordinator, which stitches the
// shard-side spans into one tree.
//
// The model follows the same discipline as Node:
//
//   - Every method on a nil *Tracer or nil *Span is a no-op, so the
//     instrumented paths thread spans unconditionally and tracing is
//     disabled simply by passing a nil tracer.
//   - Hot counters (started/kept/dropped spans) are atomics; a mutex
//     guards only span attribute maps and the completed-trace ring.
//   - Completed traces are plain serializable snapshots; the live
//     atomically-updated state never crosses the HTTP layer.
//
// Retention is tail-based: the keep/drop decision happens when the
// root span ends, when the trace's fate is known.  Slow, errored and
// partial traces are always kept, as are traces adopted from a remote
// parent (a shard must retain what its coordinator may come asking
// for); the unremarkable rest is sampled at SampleRate.
package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace-context propagation headers.  The coordinator sets the first
// two on every shard /scan call so shard-side traces join the
// coordinator's tree; NS-Query-Id carries the coordinator's query ID
// so shard logs correlate with coordinator logs.  Servers echo
// NS-Trace-Id on responses so clients (nsload, curl) can fetch the
// trace they just caused.
const (
	HeaderTraceID    = "NS-Trace-Id"
	HeaderParentSpan = "NS-Parent-Span"
	HeaderQueryID    = "NS-Query-Id"
)

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Capacity bounds the completed-trace ring buffer (default 256).
	Capacity int
	// SampleRate is the probability (0..1) of keeping a trace that is
	// neither slow, errored, partial nor remote-adopted.  1 keeps
	// everything; 0 keeps only the remarkable tail.
	SampleRate float64
	// SlowThreshold marks traces at least this slow as always-keep
	// (default 1s when zero; negative disables the slow criterion).
	SlowThreshold time.Duration
	// Seed fixes the sampler RNG for tests; 0 seeds from the clock.
	Seed int64
}

// TraceStats is the /metrics view of a Tracer: how many traces
// started, how the tail-based sampler decided, and ring occupancy.
type TraceStats struct {
	Started    int64 `json:"started"`
	Kept       int64 `json:"kept"`
	SampledOut int64 `json:"sampled_out"`
	Evicted    int64 `json:"evicted"`
	Spans      int64 `json:"spans"`
	Buffered   int64 `json:"buffered"`
}

// Tracer owns trace-ID generation, the tail-based sampling decision
// and the bounded ring of completed traces.  All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Tracer struct {
	opts TracerOptions

	started    atomic.Int64
	kept       atomic.Int64
	sampledOut atomic.Int64
	evicted    atomic.Int64
	spans      atomic.Int64

	mu   sync.Mutex
	rng  *rand.Rand
	ring []TraceSnapshot // insertion order; next wraps
	next int
}

// NewTracer returns a Tracer with opts defaulted as documented.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Tracer{
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
		ring: make([]TraceSnapshot, 0, opts.Capacity),
	}
}

// newID returns a fresh 64-bit hex ID.
func (t *Tracer) newID() string {
	t.mu.Lock()
	v := t.rng.Uint64()
	t.mu.Unlock()
	return fmt.Sprintf("%016x", v)
}

// StartTrace begins a new local trace and returns its root span.  On a
// nil receiver it returns nil (which is itself a valid no-op span).
func (t *Tracer) StartTrace(name, detail string) *Span {
	if t == nil {
		return nil
	}
	return t.start(t.newID(), "", false, name, detail)
}

// StartRemoteTrace begins a local segment of a trace owned by an
// upstream process (the trace ID arrived in an NS-Trace-Id header).
// Remote-adopted traces are always retained: the upstream coordinator
// decides sampling and may come fetching this segment by ID.
func (t *Tracer) StartRemoteTrace(traceID, parentSpan, name, detail string) *Span {
	if t == nil || traceID == "" {
		return t.StartTrace(name, detail)
	}
	return t.start(traceID, parentSpan, true, name, detail)
}

func (t *Tracer) start(traceID, parentSpan string, remote bool, name, detail string) *Span {
	t.started.Add(1)
	t.spans.Add(1)
	lt := &liveTrace{id: traceID, remote: remote}
	return &Span{
		tr:     t,
		trace:  lt,
		root:   true,
		id:     t.newID(),
		parent: parentSpan,
		name:   name,
		detail: detail,
		start:  time.Now(),
	}
}

// finish applies the tail-based retention decision to a completed
// trace and, if kept, inserts it into the ring.
func (t *Tracer) finish(lt *liveTrace, dur time.Duration) {
	slow := t.opts.SlowThreshold > 0 && dur >= t.opts.SlowThreshold
	keep := lt.remote || lt.errored || lt.partial || slow
	if !keep {
		t.mu.Lock()
		keep = t.rng.Float64() < t.opts.SampleRate
		t.mu.Unlock()
	}
	if !keep {
		t.sampledOut.Add(1)
		return
	}
	t.kept.Add(1)
	lt.mu.Lock()
	snap := TraceSnapshot{
		TraceID:       lt.id,
		Remote:        lt.remote,
		StartUnixNano: lt.startUnixNano,
		DurationNS:    int64(dur),
		Slow:          slow,
		Error:         lt.errored,
		Partial:       lt.partial,
		Spans:         lt.spans,
	}
	lt.mu.Unlock()
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.next] = snap
		t.next = (t.next + 1) % cap(t.ring)
		t.evicted.Add(1)
	}
	t.mu.Unlock()
}

// Get returns the completed trace with the given ID.  A process can
// hold several completed traces for one distributed trace ID (a shard
// serves one /scan per attempt of a query); Get merges them into a
// single snapshot: spans concatenated, start = earliest, duration =
// longest, flags OR-ed.
func (t *Tracer) Get(id string) (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out TraceSnapshot
	found := false
	for i := range t.ring {
		ts := &t.ring[i]
		if ts.TraceID != id {
			continue
		}
		if !found {
			out = *ts
			out.Spans = append([]SpanSnapshot(nil), ts.Spans...)
			found = true
			continue
		}
		out.Merge(*ts)
	}
	return out, found
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	TraceID       string `json:"trace_id"`
	Root          string `json:"root"`
	Detail        string `json:"detail,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNS    int64  `json:"duration_ns"`
	Slow          bool   `json:"slow,omitempty"`
	Error         bool   `json:"error,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
	Spans         int    `json:"spans"`
}

// List returns summaries of the buffered traces, newest first, at most
// limit (0 = all).
func (t *Tracer) List(limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	snaps := make([]TraceSnapshot, len(t.ring))
	copy(snaps, t.ring)
	t.mu.Unlock()
	sort.SliceStable(snaps, func(i, j int) bool {
		return snaps[i].StartUnixNano > snaps[j].StartUnixNano
	})
	if limit > 0 && len(snaps) > limit {
		snaps = snaps[:limit]
	}
	out := make([]TraceSummary, 0, len(snaps))
	for _, ts := range snaps {
		sum := TraceSummary{
			TraceID:       ts.TraceID,
			StartUnixNano: ts.StartUnixNano,
			DurationNS:    ts.DurationNS,
			Slow:          ts.Slow,
			Error:         ts.Error,
			Partial:       ts.Partial,
			Spans:         len(ts.Spans),
		}
		if root := ts.root(); root != nil {
			sum.Root, sum.Detail = root.Name, root.Detail
		}
		out = append(out, sum)
	}
	return out
}

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	t.mu.Lock()
	buffered := int64(len(t.ring))
	t.mu.Unlock()
	return TraceStats{
		Started:    t.started.Load(),
		Kept:       t.kept.Load(),
		SampledOut: t.sampledOut.Load(),
		Evicted:    t.evicted.Load(),
		Spans:      t.spans.Load(),
		Buffered:   buffered,
	}
}

// liveTrace accumulates finished spans of one in-flight trace.
type liveTrace struct {
	id     string
	remote bool

	mu            sync.Mutex
	startUnixNano int64
	errored       bool
	partial       bool
	spans         []SpanSnapshot
}

func (lt *liveTrace) add(s SpanSnapshot) {
	lt.mu.Lock()
	lt.spans = append(lt.spans, s)
	lt.mu.Unlock()
}

// Span is one live, mutable span of a trace.  A nil *Span is valid
// everywhere and records nothing.  Attribute writes take the span's
// mutex (they happen a handful of times per span, not per row).
type Span struct {
	tr     *Tracer
	trace  *liveTrace
	root   bool
	id     string
	parent string
	name   string
	detail string
	start  time.Time

	mu     sync.Mutex
	ended  bool
	status string
	attrs  map[string]any
}

// TraceID returns the distributed trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// ID returns the span's own ID ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// StartChild begins a child span.  On a nil receiver it returns nil.
func (s *Span) StartChild(name, detail string) *Span {
	if s == nil {
		return nil
	}
	s.tr.spans.Add(1)
	return &Span{
		tr:     s.tr,
		trace:  s.trace,
		id:     s.tr.newID(),
		parent: s.id,
		name:   name,
		detail: detail,
		start:  time.Now(),
	}
}

// SetAttr records one key/value attribute (values must be
// JSON-serializable; the instrumentation sticks to strings and
// numbers).  Last write per key wins.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// SetStatus sets the span status ("" means ok; the instrumentation
// uses "error" and "cancelled").
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status = status
	s.mu.Unlock()
}

// MarkError flags the whole trace as errored, which exempts it from
// sampling.
func (s *Span) MarkError() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.trace.errored = true
	s.trace.mu.Unlock()
}

// MarkPartial flags the whole trace as a partial (degraded) response,
// which exempts it from sampling.
func (s *Span) MarkPartial() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.trace.partial = true
	s.trace.mu.Unlock()
}

// End finishes the span, appending its snapshot to the trace.  Ending
// the root span completes the trace and triggers the retention
// decision.  End is idempotent; attribute writes after End are lost.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	snap := SpanSnapshot{
		ID:            s.id,
		Parent:        s.parent,
		Name:          s.name,
		Detail:        s.detail,
		StartUnixNano: s.start.UnixNano(),
		DurationNS:    int64(now.Sub(s.start)),
		Status:        s.status,
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			snap.Attrs[k] = v
		}
	}
	s.mu.Unlock()
	s.trace.add(snap)
	if s.root {
		s.trace.mu.Lock()
		s.trace.startUnixNano = snap.StartUnixNano
		s.trace.mu.Unlock()
		s.tr.finish(s.trace, now.Sub(s.start))
	}
}

// AttachProfile bridges a serialized execution profile into the trace
// as completed child spans of s, one per operator node, so the
// per-operator counters survive the request as span attributes.  Span
// start times are approximated to the parent's (the profile records
// only durations); DurationNS is the operator's exact wall counter.  Safe
// to call after s.End() — the trace is finalized only when the root
// span ends, and the servers attach the profile before that.
func (s *Span) AttachProfile(p *Profile) {
	if s == nil || p == nil {
		return
	}
	s.attachProfile(p, s.id, s.start.UnixNano())
}

func (s *Span) attachProfile(p *Profile, parent string, startNS int64) {
	s.tr.spans.Add(1)
	snap := SpanSnapshot{
		ID:            s.tr.newID(),
		Parent:        parent,
		Name:          "op:" + p.Op,
		Detail:        p.Detail,
		StartUnixNano: startNS,
		DurationNS:    p.WallNS,
		Attrs:         profileAttrs(p),
	}
	s.trace.add(snap)
	for _, c := range p.Children {
		s.attachProfile(c, snap.ID, startNS)
	}
}

// profileAttrs flattens one profile node's non-zero counters.
func profileAttrs(p *Profile) map[string]any {
	a := map[string]any{"rows_in": p.RowsIn, "rows_out": p.RowsOut}
	add := func(k string, v int64) {
		if v != 0 {
			a[k] = v
		}
	}
	add("dedup_hits", p.DedupHits)
	add("ns_candidates", p.NSCandidates)
	add("ns_survivors", p.NSSurvivors)
	add("range_scans", p.RangeScans)
	add("merge_runs", p.MergeRuns)
	add("replans", p.Replans)
	add("budget_steps", p.BudgetSteps)
	add("budget_rows", p.BudgetRows)
	add("budget_bytes", p.BudgetBytes)
	return a
}

// SpanSnapshot is one completed span — the /debug/traces wire schema.
// Spans are a flat list; the tree structure is recovered through
// Parent IDs so that spans collected on different processes stitch
// together without coordination.
type SpanSnapshot struct {
	ID            string         `json:"id"`
	Parent        string         `json:"parent,omitempty"`
	Name          string         `json:"name"`
	Detail        string         `json:"detail,omitempty"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationNS    int64          `json:"duration_ns"`
	Status        string         `json:"status,omitempty"`
	Attrs         map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is one completed (possibly stitched) trace.
type TraceSnapshot struct {
	TraceID       string         `json:"trace_id"`
	Remote        bool           `json:"remote,omitempty"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationNS    int64          `json:"duration_ns"`
	Slow          bool           `json:"slow,omitempty"`
	Error         bool           `json:"error,omitempty"`
	Partial       bool           `json:"partial,omitempty"`
	Spans         []SpanSnapshot `json:"spans"`
}

// Merge folds another snapshot of the same trace ID into t: spans are
// concatenated, the start is the earliest, the duration the longest
// local segment, and the remarkable flags OR together.
func (t *TraceSnapshot) Merge(other TraceSnapshot) {
	t.Spans = append(t.Spans, other.Spans...)
	if other.StartUnixNano > 0 && (t.StartUnixNano == 0 || other.StartUnixNano < t.StartUnixNano) {
		t.StartUnixNano = other.StartUnixNano
	}
	if other.DurationNS > t.DurationNS {
		t.DurationNS = other.DurationNS
	}
	t.Slow = t.Slow || other.Slow
	t.Error = t.Error || other.Error
	t.Partial = t.Partial || other.Partial
}

// root returns the span with no locally-resolvable parent that started
// earliest (the request root, once stitched), or nil.
func (t *TraceSnapshot) root() *SpanSnapshot {
	byID := make(map[string]bool, len(t.Spans))
	for i := range t.Spans {
		byID[t.Spans[i].ID] = true
	}
	var root *SpanSnapshot
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Parent != "" && byID[s.Parent] {
			continue
		}
		if root == nil || s.StartUnixNano < root.StartUnixNano {
			root = s
		}
	}
	return root
}

// Tree renders the stitched trace as an indented text tree, one span
// per line, children ordered by start time — the `nsq -trace` output
// format.  Spans whose parent is not in the snapshot (e.g. a shard
// segment fetched without the coordinator side) render at the root
// level.
func (t *TraceSnapshot) Tree() string {
	byID := make(map[string]bool, len(t.Spans))
	children := make(map[string][]*SpanSnapshot, len(t.Spans))
	for i := range t.Spans {
		byID[t.Spans[i].ID] = true
	}
	var roots []*SpanSnapshot
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Parent != "" && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(ss []*SpanSnapshot) {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].StartUnixNano < ss[j].StartUnixNano })
	}
	byStart(roots)
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s  dur=%s", t.TraceID, time.Duration(t.DurationNS))
	if t.Slow {
		sb.WriteString(" slow")
	}
	if t.Error {
		sb.WriteString(" error")
	}
	if t.Partial {
		sb.WriteString(" partial")
	}
	sb.WriteByte('\n')
	var render func(s *SpanSnapshot, depth int)
	render = func(s *SpanSnapshot, depth int) {
		for i := 0; i < depth; i++ {
			sb.WriteString("  ")
		}
		sb.WriteString(s.Name)
		if s.Detail != "" {
			fmt.Fprintf(&sb, " %s", s.Detail)
		}
		fmt.Fprintf(&sb, "  dur=%s", time.Duration(s.DurationNS))
		if s.Status != "" {
			fmt.Fprintf(&sb, " status=%s", s.Status)
		}
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%v", k, s.Attrs[k])
			}
		}
		sb.WriteByte('\n')
		kids := children[s.ID]
		byStart(kids)
		for _, c := range kids {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 1)
	}
	return sb.String()
}

// spanCtxKey carries the active span through context, so layers with
// stable signatures (the cluster coordinator's Gather) can pick it up
// without plumbing.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// qidCtxKey carries the request's query ID across processes: the
// coordinator stores it, the cluster client forwards it to shards in
// the NS-Query-Id header, and shard logs adopt it.
type qidCtxKey struct{}

// ContextWithQueryID returns ctx carrying the query ID.
func ContextWithQueryID(ctx context.Context, qid string) context.Context {
	if qid == "" {
		return ctx
	}
	return context.WithValue(ctx, qidCtxKey{}, qid)
}

// QueryIDFromContext returns the query ID carried by ctx, or "".
func QueryIDFromContext(ctx context.Context) string {
	qid, _ := ctx.Value(qidCtxKey{}).(string)
	return qid
}
