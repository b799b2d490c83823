// Package cluster is the scatter-gather layer of the sharded nsserve
// deployment: a hash-by-subject partition of the triple store across
// N shard servers, and a coordinator that answers any NS-SPARQL query
// against the union of the shards.
//
// # Why scatter-gather is exact
//
// The answer to an NS-SPARQL pattern P over a graph G is a function
// of the match sets ⟦tp⟧_G of the triple patterns tp occurring in P
// alone — every operator of the language (AND, UNION, OPT, FILTER,
// SELECT, NS) is defined compositionally from those sets and never
// consults G directly (see sparql.TriplePatterns).  Since the shards
// partition G, each pattern's global match set is the disjoint union
// of its per-shard match sets, so the coordinator gathers
// ⋃_tp matches(G, tp) — per-shard sorted streams k-way-merged into a
// per-query local store — and evaluates P on that subgraph with the
// ordinary single-node engine.  The answer is identical to
// single-node evaluation over G on every fragment, including the
// non-monotone ones (OPT, NS), which per-shard evaluation plus result
// union would get wrong.
//
// # Robustness model
//
// Every remote call is governed by the query's deadline: per-attempt
// timeouts are carved from it, transient failures (connection errors,
// 5xx, torn streams) are retried under exponential backoff with
// jitter, and a slow shard is hedged — a duplicate request launched
// after the shard's observed latency quantile, and never before twice
// its median — with the first response winning.  A health prober
// ejects shards that fail consecutive readiness probes and readmits
// them when they recover.
// When a shard stays unreachable within the deadline, the coordinator
// degrades gracefully: the query is answered from the shards that did
// respond, flagged partial with a per-shard error block, instead of
// failing outright.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Options configures a Coordinator.  The zero value of every knob
// takes the documented default; Shards is required.
type Options struct {
	// Shards are the shard base URLs, index i serving partition i/N.
	Shards []string
	// Client issues the HTTP requests; nil builds one with pooled
	// connections and no global timeout (deadlines come from contexts).
	Client *http.Client
	// Backoff is the retry policy for transient scan and insert
	// failures; a zero policy takes DefaultBackoff.
	Backoff BackoffPolicy
	// ScanTimeout caps a single scan attempt (the query deadline still
	// applies on top).  Default 10s.
	ScanTimeout time.Duration
	// HedgeDelay is the hedging delay used until a shard has enough
	// latency samples for a quantile estimate.  Default 50ms.
	HedgeDelay time.Duration
	// HedgeQuantile is the per-shard latency quantile after which a
	// hedge is launched.  Default 0.95.
	HedgeQuantile float64
	// HedgeMinSamples is how many successful scans a shard needs
	// before its own quantile replaces HedgeDelay.  Default 16.
	HedgeMinSamples int
	// DisableHedging turns hedged requests off (retries remain).
	DisableHedging bool
	// ProbeInterval is the health-prober period; <= 0 disables the
	// prober (shards then stay in their initial healthy state unless
	// Probe is called explicitly).  Default when Start is used: 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe.  Default 1s.
	ProbeTimeout time.Duration
	// EjectAfter ejects a shard after this many consecutive failed
	// probes.  Default 3.
	EjectAfter int
	// ReadmitAfter readmits an ejected shard after this many
	// consecutive successful probes.  Default 2.
	ReadmitAfter int
	// Seed seeds the jitter RNG; 0 seeds from the clock.  Tests pin it
	// for reproducible backoff schedules.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Backoff == (BackoffPolicy{}) {
		o.Backoff = DefaultBackoff
	}
	if o.ScanTimeout == 0 {
		o.ScanTimeout = 10 * time.Second
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 50 * time.Millisecond
	}
	if o.HedgeQuantile == 0 {
		o.HedgeQuantile = 0.95
	}
	if o.HedgeMinSamples == 0 {
		o.HedgeMinSamples = 16
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = time.Second
	}
	if o.EjectAfter == 0 {
		o.EjectAfter = 3
	}
	if o.ReadmitAfter == 0 {
		o.ReadmitAfter = 2
	}
	return o
}

// ShardStatus is one shard's entry in a query's per-shard error
// block: which shard, its prober state, and what went wrong for this
// query ("" when the shard answered).
type ShardStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Coordinator fans queries and inserts out to the shards.  All
// methods are safe for concurrent use.
type Coordinator struct {
	opts   Options
	shards []*shard
	client *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	queries  atomic.Int64
	partials atomic.Int64
	fails    atomic.Int64

	// attempts tracks every in-flight remote-call goroutine (scan
	// primaries, hedges, insert forwards) so Close can prove none leak.
	attempts sync.WaitGroup

	stopOnce sync.Once
	stop     chan struct{}
	probeWG  sync.WaitGroup
}

// New builds a Coordinator over the given shards.  Call Start to run
// the health prober, and Close when done.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		rng:    rand.New(rand.NewSource(seed)),
		stop:   make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for i, base := range opts.Shards {
		sh := &shard{index: i, base: strings.TrimRight(base, "/")}
		sh.healthy.Store(true)
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// NumShards returns the configured shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Start launches the background health prober.
func (c *Coordinator) Start() {
	if c.opts.ProbeInterval <= 0 {
		return
	}
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		t := time.NewTicker(c.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Probe()
			}
		}
	}()
}

// Close stops the prober, waits for every in-flight remote call
// goroutine to finish and releases pooled connections.  Callers stop
// issuing queries before Close (a server calls it after its drain).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	c.attempts.Wait()
	c.client.CloseIdleConnections()
}

// jitter returns the coordinator's RNG under its lock for one Delay
// computation.
func (c *Coordinator) delay(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.opts.Backoff.Delay(attempt, c.rng)
}

// --- health probing ---

// Probe runs one readiness round over all shards, applying the
// eject/readmit state machine.  Exported so tests and callers without
// the background prober can step health explicitly.
func (c *Coordinator) Probe() {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			c.probeShard(sh)
		}(sh)
	}
	wg.Wait()
}

func (c *Coordinator) probeShard(sh *shard) {
	sh.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+"/readyz", nil)
	if err == nil {
		resp, derr := c.client.Do(req)
		if derr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if ok {
		sh.consecFails.Store(0)
		n := sh.consecOKs.Add(1)
		if !sh.healthy.Load() && n >= int64(c.opts.ReadmitAfter) {
			sh.healthy.Store(true)
			sh.readmissions.Add(1)
		}
		return
	}
	sh.probeFails.Add(1)
	sh.consecOKs.Store(0)
	n := sh.consecFails.Add(1)
	if sh.healthy.Load() && n >= int64(c.opts.EjectAfter) {
		sh.healthy.Store(false)
		sh.ejections.Add(1)
	}
}

// --- scatter-gather query path ---

// Gather pulls the matches of every pattern from every shard — one
// request per shard, answered from one snapshot of that shard — and
// merges them into a fresh local store, the query-relevant subgraph.
// It returns the store, the per-shard status block, and whether the
// gather is partial (at least one shard contributed nothing).  The
// context carries the query deadline; Gather never outlives it: when
// the deadline falls, outstanding shards are recorded as failed and
// whatever arrived is returned.
func (c *Coordinator) Gather(ctx context.Context, patterns []sparql.TriplePattern) (rdf.Store, []ShardStatus, bool) {
	c.queries.Add(1)
	qspan := obs.SpanFromContext(ctx)
	body, n := scanRequestBody(patterns)
	gsp := qspan.StartChild("gather", "")
	shardErr := make([]error, len(c.shards))
	frames := make([]*scanFrame, len(c.shards))
	if n > 0 {
		var wg sync.WaitGroup
		for i, sh := range c.shards {
			if !sh.healthy.Load() {
				shardErr[i] = errors.New("ejected by health prober")
				continue
			}
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				frames[i], shardErr[i] = c.scanShard(ctx, sh, body, n, gsp)
			}(i, sh)
		}
		wg.Wait()
	}
	g := loadFrames(frames)
	gsp.SetAttr("patterns", n)
	gsp.SetAttr("triples", g.Len())
	gsp.End()

	partial := false
	statuses := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		statuses[i] = ShardStatus{Shard: i, Addr: sh.base, State: sh.state()}
		if shardErr[i] != nil {
			statuses[i].Error = shardErr[i].Error()
			partial = true
		}
	}
	// Exactly-once partial accounting: one query is one tick,
	// regardless of how many shards failed inside it.
	if partial {
		c.partials.Add(1)
		qspan.MarkPartial()
	}
	return g, statuses, partial
}

// scanRequestBody renders the patterns as a POST /scan body, one line
// each, and counts the lines.  Patterns that differ only in variable
// names ask for the same triples and are sent once.
func scanRequestBody(patterns []sparql.TriplePattern) (string, int) {
	var b strings.Builder
	seen := make(map[string]struct{}, len(patterns))
	for _, tp := range patterns {
		line := ScanQuery(tp).Encode()
		if _, dup := seen[line]; dup {
			continue
		}
		seen[line] = struct{}{}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), len(seen)
}

// scanShard fetches the request's patterns from one shard: bounded
// retries with jittered backoff around hedged attempts.
func (c *Coordinator) scanShard(ctx context.Context, sh *shard, body string, patterns int, parent *obs.Span) (*scanFrame, error) {
	maxAttempts := c.opts.Backoff.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			sh.retries.Add(1)
			if err := SleepContext(ctx, c.delay(attempt-1)); err != nil {
				// The query deadline fell mid-backoff; the failure that
				// put us here is the informative error.
				return nil, lastErr
			}
		}
		f, err := c.scanHedged(ctx, sh, body, patterns, parent, attempt)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// scanHedged runs one logical scan attempt: a primary request, plus a
// hedge launched if the primary is still running after the shard's
// latency-quantile delay.  The first success wins and the loser is
// cancelled; if all launched requests fail, the first failure is
// returned (the retry loop takes it from there).
//
// Each launched request gets its own "rpc.scan" span under parent,
// carrying the shard index, the retry attempt, how many patterns it
// asks for and whether it is the hedge lane; the select loop (never
// the request goroutines) ends the spans, recording what came back
// (bytes read, and for a whole frame its triples and dictionary size),
// marking the winner and, when a success preempts the other lane,
// marking the loser cancelled — its duration then reads "time until
// the winner made it redundant".
func (c *Coordinator) scanHedged(ctx context.Context, sh *shard, body string, patterns int, parent *obs.Span, attempt int) (*scanFrame, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		frame *scanFrame
		bytes int
		err   error
		hedge bool
	}
	ch := make(chan result, 2) // buffered: the loser must never block
	launch := func(hedge bool) *obs.Span {
		sp := parent.StartChild("rpc.scan", sh.base)
		sp.SetAttr("shard", sh.index)
		sp.SetAttr("attempt", attempt)
		sp.SetAttr("patterns", patterns)
		if hedge {
			sp.SetAttr("hedge", true)
		}
		c.attempts.Add(1)
		go func() {
			defer c.attempts.Done()
			f, n, err := c.scanOnce(actx, sh, body, sp)
			ch <- result{frame: f, bytes: n, err: err, hedge: hedge}
		}()
		return sp
	}
	spans := map[bool]*obs.Span{false: launch(false)}
	outstanding, hedged := 1, false

	var hedgeC <-chan time.Time
	if !c.opts.DisableHedging {
		t := time.NewTimer(c.hedgeDelay(sh))
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			sh.hedges.Add(1)
			hedged = true
			spans[true] = launch(true)
			outstanding++
		case r := <-ch:
			outstanding--
			sp := spans[r.hedge]
			delete(spans, r.hedge)
			sp.SetAttr("bytes", r.bytes)
			if r.err == nil {
				if r.hedge {
					sh.hedgeWins.Add(1)
				} else if hedged {
					sh.hedgesWasted.Add(1)
				}
				sp.SetAttr("triples", len(r.frame.triples))
				sp.SetAttr("dict", len(r.frame.iris))
				sp.SetAttr("outcome", "winner")
				sp.End()
				for _, loser := range spans {
					loser.SetAttr("outcome", "cancelled")
					loser.SetStatus("cancelled")
					loser.End()
				}
				return r.frame, nil
			}
			sp.SetAttr("outcome", "error")
			sp.SetAttr("error", r.err.Error())
			sp.SetStatus("error")
			sp.End()
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
			hedgeC = nil // one lane failed: ride the other out, no new hedges
		}
	}
}

// hedgeDelay picks the delay before a duplicate request: once the
// shard has enough latency samples, the largest of its HedgeQuantile
// latency, twice its median and 1 ms, the configured default before
// that.  A hedge sent before a typical scan could have answered is
// wasted: it doubles that scan's work and seldom wins.
func (c *Coordinator) hedgeDelay(sh *shard) time.Duration {
	if snap := sh.latency.Snapshot(); snap.Count >= int64(c.opts.HedgeMinSamples) {
		if q, ok := sh.latency.Quantile(c.opts.HedgeQuantile); ok {
			p50, _ := sh.latency.Quantile(0.5)
			return max(q, 2*p50, time.Millisecond)
		}
	}
	return c.opts.HedgeDelay
}

// scanOnce issues a single scan request under the per-attempt timeout
// and decodes the frame, returning the response bytes it read either
// way.  The span contributes only trace-propagation headers (its IDs
// are immutable, so reading them here cannot race with the select loop
// ending the span); the shard adopts the trace and retains its segment
// for coordinator stitching.
func (c *Coordinator) scanOnce(ctx context.Context, sh *shard, body string, sp *obs.Span) (*scanFrame, int, error) {
	sh.scans.Add(1)
	if c.opts.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.ScanTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.base+"/scan", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if tid := sp.TraceID(); tid != "" {
		req.Header.Set(obs.HeaderTraceID, tid)
		req.Header.Set(obs.HeaderParentSpan, sp.ID())
	}
	if qid := obs.QueryIDFromContext(ctx); qid != "" {
		req.Header.Set(obs.HeaderQueryID, qid)
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		sh.scanErrors.Add(1)
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		sh.scanErrors.Add(1)
		return nil, 0, &StatusError{Code: resp.StatusCode, Endpoint: "scan"}
	}
	f, n, err := readScanFrame(resp.Body, resp.ContentLength)
	sh.scanBytes.Add(int64(n))
	if err != nil {
		sh.scanErrors.Add(1)
		return nil, n, err
	}
	sh.latency.Observe(time.Since(start))
	return &f, n, nil
}

// StatusError is a non-200 response from a shard.
type StatusError struct {
	Code     int
	Endpoint string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard %s returned HTTP %d", e.Endpoint, e.Code)
}

// retryable classifies an error as transient (worth a retry) or
// permanent.  Transport errors, torn frames, per-attempt timeouts and
// 5xx statuses are transient; a 4xx status means the request itself is
// wrong, and a whole response that is not a frame means the peer
// speaks something else — retrying helps neither.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	var bad errBadFrame
	return !errors.As(err, &bad)
}

// --- insert routing ---

// Insert partitions triples by subject hash and forwards each bucket
// to its shard (in parallel, with the same retry policy as scans;
// inserts are idempotent, so retrying a torn forward is safe).  It
// returns the total number of newly-added triples and the per-shard
// status block; any Error entry means that shard's bucket is not
// (fully) applied.
func (c *Coordinator) Insert(ctx context.Context, triples []rdf.Triple) (int, []ShardStatus, bool) {
	buckets := Partition(triples, len(c.shards))
	statuses := make([]ShardStatus, len(c.shards))
	added := make([]int, len(c.shards))
	shardErr := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		statuses[i] = ShardStatus{Shard: i, Addr: sh.base, State: sh.state()}
		if len(buckets) <= i || len(buckets[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard, bucket []rdf.Triple) {
			defer wg.Done()
			n, err := c.insertShard(ctx, sh, bucket)
			added[i], shardErr[i] = n, err
		}(i, sh, buckets[i])
	}
	wg.Wait()
	total, failed := 0, false
	for i := range c.shards {
		total += added[i]
		if shardErr[i] != nil {
			statuses[i].Error = shardErr[i].Error()
			failed = true
		}
	}
	return total, statuses, failed
}

// insertShard posts one bucket to one shard with retries.
func (c *Coordinator) insertShard(ctx context.Context, sh *shard, bucket []rdf.Triple) (int, error) {
	var body strings.Builder
	for _, t := range bucket {
		body.WriteString(t.NTriples())
		body.WriteByte('\n')
	}
	maxAttempts := c.opts.Backoff.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			sh.retries.Add(1)
			if err := SleepContext(ctx, c.delay(attempt-1)); err != nil {
				return 0, lastErr
			}
		}
		n, err := c.insertOnce(ctx, sh, body.String())
		if err == nil {
			return n, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			return 0, lastErr
		}
	}
	return 0, lastErr
}

func (c *Coordinator) insertOnce(ctx context.Context, sh *shard, body string) (int, error) {
	if c.opts.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.ScanTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.base+"/insert", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if qid := obs.QueryIDFromContext(ctx); qid != "" {
		req.Header.Set(obs.HeaderQueryID, qid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, &StatusError{Code: resp.StatusCode, Endpoint: "insert"}
	}
	var out struct {
		Added int `json:"added"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Added, nil
}

// --- trace stitching ---

// FetchShardTraces pulls the shard-local segments of one distributed
// trace from every shard's /debug/traces endpoint, for stitching into
// the coordinator's own snapshot.  Shards that are down, don't have
// the trace, or answer garbage are simply skipped — stitching is
// best-effort diagnostics, never load-bearing.  Each fetched span is
// annotated with a "shard" attribute so a stitched tree says where
// every span ran.
func (c *Coordinator) FetchShardTraces(ctx context.Context, id string) []obs.TraceSnapshot {
	out := make([]obs.TraceSnapshot, 0, len(c.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			u := sh.base + "/debug/traces?id=" + url.QueryEscape(id)
			req, err := http.NewRequestWithContext(fctx, http.MethodGet, u, nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				return
			}
			defer func() {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
			}()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var ts obs.TraceSnapshot
			if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&ts); err != nil {
				return
			}
			for i := range ts.Spans {
				if ts.Spans[i].Attrs == nil {
					ts.Spans[i].Attrs = make(map[string]any, 1)
				}
				ts.Spans[i].Attrs["shard"] = sh.index
			}
			mu.Lock()
			out = append(out, ts)
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	return out
}

// --- metrics ---

// NoteResult records the query-level outcome for /metrics: ok,
// "partial" (200 with partial:true) or "failed" (no shard answered).
func (c *Coordinator) NoteResult(outcome string) {
	if outcome == "failed" {
		c.fails.Add(1)
	}
}

// Stats snapshots the coordinator's cluster metrics.
func (c *Coordinator) Stats() obs.ClusterStats {
	out := obs.ClusterStats{
		Queries:          c.queries.Load(),
		PartialResponses: c.partials.Load(),
		FailedResponses:  c.fails.Load(),
	}
	for _, sh := range c.shards {
		out.Shards = append(out.Shards, sh.stats())
	}
	return out
}
