package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/sparql"
)

// Backend is where a Front's queries get their store and where its
// inserts go: Store (nsserve) or Cluster (nscoord).
type Backend interface {
	// view hands a parsed query the store it runs on.  ok false means
	// the backend has already answered w (no store to run on).
	view(ctx context.Context, f *Front, w http.ResponseWriter, parsed parser.Parsed) (v view, ok bool)
	// insert applies a parsed /insert body — its triples in order,
	// repeats included — and writes the response.
	insert(ctx context.Context, f *Front, w http.ResponseWriter, ts []rdf.Triple)
	// healthz serves the liveness probe, lock-free.
	healthz(w http.ResponseWriter, r *http.Request)
	// addMetrics adds the backend's blocks to a /metrics snapshot.
	addMetrics(snap *obs.MetricsSnapshot)
	// shardTraces fetches other processes' segments of a trace for
	// /debug/traces to stitch in; nil when there are none.
	shardTraces(r *http.Request, id string) []obs.TraceSnapshot
}

// view is one query's read view.
type view struct {
	store   rdf.Store
	release func() // nil: nothing to release
	partial bool   // the store is missing a failed shard's triples
	fields  []exec.Field
}

// Store is nsserve's backend: one long-lived store behind a lock.
// Queries take the read side, inserts the write side.  The query
// governor guarantees the read side is released within a bounded delay
// of a deadline or cancellation, so a hostile query cannot starve
// inserts.
type Store struct {
	mu sync.RWMutex
	g  rdf.Store
	// durable is non-nil when the store is the WAL+snapshot backend.
	// Its stats are atomics, so /healthz and /metrics read them
	// lock-free.
	durable *durable.Store

	// shardIndex / shardCount put the store in cluster mode: it owns
	// hash-by-subject partition shardIndex of shardCount and rejects
	// inserts outside it.  shardCount 0 or 1 is single-node mode.
	shardIndex, shardCount int

	stats atomic.Pointer[obs.StoreStats] // lock-free mirror of g.Stats() for /healthz and /metrics
}

// NewStore returns the backend over g, owning partition shardIndex of
// shardCount (0 or 1: the whole graph).
func NewStore(g rdf.Store, shardIndex, shardCount int) *Store {
	s := &Store{g: g, shardIndex: shardIndex, shardCount: shardCount}
	s.durable, _ = g.(*durable.Store)
	s.refreshStats()
	return s
}

// Read takes the read side of the lock and returns the store with the
// function that releases it — the shape cluster.ScanHandler wants.
func (s *Store) Read() (rdf.Store, func()) {
	s.mu.RLock()
	return s.g, s.mu.RUnlock
}

// kind names the storage backend: "durable" or "memstore".
func (s *Store) kind() string {
	if s.durable != nil {
		return "durable"
	}
	return "memstore"
}

// healthz is the liveness probe: it takes no locks — the triple count
// comes from the stats mirror inserts maintain, and the durable
// backend's stats are atomics — so it answers even while heavy queries
// are in flight.  It names the active storage backend (and, in cluster
// mode, the partition), and on the durable backend reports the age of
// the last snapshot in seconds (-1 before the first snapshot of the
// run), so probes can alert on a stuck snapshot loop.
func (s *Store) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	extra := ""
	if s.shardCount > 1 {
		extra = fmt.Sprintf(`, "shard": "%d/%d"`, s.shardIndex, s.shardCount)
	}
	if s.durable != nil {
		ds := s.durable.DurableStats()
		age := int64(-1)
		if ds.LastSnapshotUnix > 0 {
			age = time.Now().Unix() - ds.LastSnapshotUnix
		}
		extra += fmt.Sprintf(`, "wal_generation": %d, "last_snapshot_age_seconds": %d`, ds.Generation, age)
	}
	fmt.Fprintf(w, `{"status": "ok", "version": %q, "go": %q, "triples": %d, "backend": %q%s}`+"\n",
		buildVersion(), runtime.Version(), s.stats.Load().Triples, s.kind(), extra)
}

func (s *Store) view(context.Context, *Front, http.ResponseWriter, parser.Parsed) (view, bool) {
	g, release := s.Read()
	return view{store: g, release: release}, true
}

// refreshStats updates the lock-free /metrics mirror of the store's
// index statistics.  Called at construction and after each insert,
// while the caller still guarantees no concurrent writer.
func (s *Store) refreshStats() {
	st := s.g.Stats()
	s.stats.Store(&obs.StoreStats{
		Triples:     int64(st.Triples),
		BaseTriples: int64(st.BaseTriples),
		OverlayAdds: int64(st.OverlayAdds),
		OverlayDels: int64(st.OverlayDels),
		Compactions: st.Compactions,
		Epoch:       st.Epoch,
	})
}

func (s *Store) insert(ctx context.Context, f *Front, w http.ResponseWriter, ts []rdf.Triple) {
	// In cluster mode the store owns one hash-by-subject partition.  A
	// triple outside it fails the whole request (before any mutation):
	// silently accepting it would break the partition-disjointness the
	// coordinator's scatter-gather relies on, and silently dropping it
	// would lie to the client about what was stored.
	if s.shardCount > 1 {
		for _, t := range ts {
			if shard := cluster.ShardOf(t.S, s.shardCount); shard != s.shardIndex {
				writeJSONError(w, http.StatusBadRequest, fmt.Sprintf(
					"triple with subject %s belongs to shard %d, this server is shard %d/%d",
					t.S, shard, s.shardIndex, s.shardCount))
				return
			}
		}
	}
	// The whole insert is one AddTriples batch: sorted once and merged
	// into the store's sorted base, and on the durable backend one WAL
	// record appended before any of it is published — a crash never
	// persists half a body, and a failed append publishes nothing.  The
	// commit span measures the batch under the write lock; on the
	// durable backend its WAL/fsync work is attributed by before/after
	// stat deltas (the stats are atomics, so reading them around the
	// batch needs no storage-layer hooks), with a child span when the
	// batch rolled a snapshot.
	csp := obs.SpanFromContext(ctx).StartChild("commit", s.kind())
	var durableBefore obs.DurableStats
	if s.durable != nil {
		durableBefore = s.durable.DurableStats()
	}
	s.mu.Lock()
	added, commitErr := s.g.AddTriples(ts)
	after := s.g.Len()
	s.refreshStats()
	s.mu.Unlock()
	csp.SetAttr("added", added)
	if s.durable != nil {
		ds := s.durable.DurableStats()
		csp.SetAttr("wal_records", ds.WALRecords-durableBefore.WALRecords)
		csp.SetAttr("wal_bytes", ds.WALBytes-durableBefore.WALBytes)
		csp.SetAttr("wal_syncs", ds.WALSyncs-durableBefore.WALSyncs)
		csp.SetAttr("fsync_us", ds.FsyncLatency.SumUS-durableBefore.FsyncLatency.SumUS)
		if rolls := ds.Snapshots - durableBefore.Snapshots; rolls > 0 {
			ssp := csp.StartChild("durable.snapshot", "")
			ssp.SetAttr("rolls", rolls)
			ssp.SetAttr("generation", ds.Generation)
			ssp.End()
		}
	}
	if commitErr != nil {
		csp.SetStatus("error")
		csp.SetAttr("error", commitErr.Error())
	}
	csp.End()
	if commitErr != nil {
		// The log refused the batch, so none of it was applied: readers
		// never saw it and a restart will not replay it.  The client may
		// retry the whole body.
		f.logger(ctx).Error("insert not applied", "triples", len(ts), "err", commitErr)
		writeJSONError(w, http.StatusInternalServerError,
			"insert not applied: "+commitErr.Error())
		return
	}
	f.logger(ctx).Debug("insert applied", "added", added, "triples", after)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"added": %d}`+"\n", added)
}

func (s *Store) addMetrics(snap *obs.MetricsSnapshot) {
	snap.Store = s.stats.Load()
	if s.durable != nil {
		ds := s.durable.DurableStats()
		snap.Durable = &ds
	}
}

func (s *Store) shardTraces(*http.Request, string) []obs.TraceSnapshot { return nil }

// Cluster is nscoord's backend: each query runs on the subgraph its
// triple patterns gather from the shards (exact for every operator —
// see internal/cluster), and inserts are routed to the owning shards.
// It answers with the degradation block: "partial" on every JSON
// answer, plus "shards" naming the failed ones when a gather is
// partial; X-Partial on a partial CONSTRUCT; 502 when no shard answers.
type Cluster struct {
	coord *cluster.Coordinator
}

// NewCluster returns the backend over coord.
func NewCluster(coord *cluster.Coordinator) *Cluster { return &Cluster{coord: coord} }

func (c *Cluster) view(ctx context.Context, f *Front, w http.ResponseWriter, parsed parser.Parsed) (view, bool) {
	// The gather runs under the query deadline: pull the triple
	// patterns' matches from the shards, one request each, into a
	// per-query local store.  Nothing holds it but this query.
	patterns := sparql.TriplePatterns(parsed.Pattern)
	g, statuses, partial := c.coord.Gather(ctx, patterns)
	failed := failedShards(statuses)
	if len(failed) == len(statuses) && len(patterns) > 0 {
		// Nothing answered: there is no subset of the data to degrade
		// to, so this is an error, not a partial result.
		c.coord.NoteResult("failed")
		f.logger(ctx).Warn("all shards failed", "shards", len(statuses))
		writeJSONError(w, http.StatusBadGateway, "no shard reachable", failed...)
		return view{}, false
	}
	v := view{store: g, partial: partial, fields: []exec.Field{{Name: "partial", Value: partial}}}
	if partial {
		f.logger(ctx).Warn("partial gather", "failed_shards", len(failed))
		v.fields = append(v.fields, exec.Field{Name: "shards", Value: failed})
	}
	return v, true
}

func (c *Cluster) insert(ctx context.Context, f *Front, w http.ResponseWriter, ts []rdf.Triple) {
	if f.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.QueryTimeout)
		defer cancel()
	}
	added, statuses, failed := c.coord.Insert(ctx, ts)
	failedList := failedShards(statuses)
	if failed && added == 0 && len(failedList) == len(statuses) {
		writeJSONError(w, http.StatusBadGateway, "no shard accepted the insert", failedList...)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	doc := map[string]any{"added": added, "partial": failed}
	if failed {
		doc["shards"] = failedList
	}
	_ = json.NewEncoder(w).Encode(doc)
}

// healthz is the liveness probe: 200 while the process runs.
func (c *Cluster) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status": "ok", "version": %q, "shards": %d}`+"\n", buildVersion(), c.coord.NumShards())
}

func (c *Cluster) addMetrics(snap *obs.MetricsSnapshot) {
	cs := c.coord.Stats()
	snap.Cluster = &cs
}

// shardTraces pulls the shard-side segments of a trace from each
// shard's /debug/traces, so one URL shows the whole distributed tree.
func (c *Cluster) shardTraces(r *http.Request, id string) []obs.TraceSnapshot {
	return c.coord.FetchShardTraces(r.Context(), id)
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
