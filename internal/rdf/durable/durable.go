// Package durable is the persistent backend of the rdf.Store
// interface: an in-memory sorted-index graph (rdf.Graph, the
// memstore) fronted by an append-only write-ahead log and periodic
// snapshots, so a crash — kill -9 at any instruction — loses at most
// the unsynced WAL tail and recovery rebuilds exactly the state whose
// records reached disk.
//
// # File layout
//
// A data directory holds at most two generations of two files:
//
//	snap-<gen>   full dump of the store when generation <gen> began
//	wal-<gen>    every mutation since, one record per Add/Remove/batch
//
// Generation 1 has no snapshot (the base state is empty).  A
// snapshot bumps the generation: the full store is written to
// snap-<gen+1> (tmp + fsync + rename + dir fsync), a fresh
// wal-<gen+1> is created, and the old generation's files are
// deleted.  A crash anywhere in that sequence is safe: until the
// rename commits, recovery uses the old generation; after it, the
// new one — whichever valid snapshot has the highest generation wins,
// and leftovers of the loser are swept.
//
// # Recovery
//
// Open deletes stray .tmp files, loads the highest-generation valid
// snapshot (if any), replays that generation's WAL — truncating at
// the first torn or CRC-invalid record — and continues appending at
// the truncation point.  The result is exactly the snapshot state
// plus every durable WAL record, which under FsyncAlways is every
// committed mutation and under FsyncBatch everything up to the last
// sync window.
//
// # Concurrency
//
// The same single-writer rules as the memstore apply (see the
// rdf.Store snapshot-guard contract); DurableStats alone may be
// called concurrently with mutations — every counter it reads is
// atomic.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// FsyncPolicy says when WAL appends are forced to disk.
type FsyncPolicy int

const (
	// FsyncBatch syncs after BatchSyncRecords unsynced records or
	// BatchSyncInterval since the last sync, whichever comes first —
	// bounded loss, amortized sync cost.  The default.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways syncs after every record: no committed mutation is
	// ever lost, at one fsync per mutation (or per batch).
	FsyncAlways
	// FsyncOff never syncs; the OS flushes when it pleases.  A crash
	// can lose any unflushed suffix of the WAL — still a valid
	// prefix, never a corrupt state.
	FsyncOff
)

// ParseFsyncPolicy parses "always", "batch" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configures Open.  The zero value is usable: batch fsync,
// automatic snapshots every defaultSnapshotEvery mutations.
type Options struct {
	// Fsync is the WAL sync policy.
	Fsync FsyncPolicy
	// SnapshotEvery triggers a snapshot after that many mutations
	// since the last one; 0 means the default, negative disables
	// automatic snapshots entirely (Snapshot still works).
	SnapshotEvery int
	// BatchSyncRecords / BatchSyncInterval tune FsyncBatch; zero
	// values take the defaults (64 records / 100ms).
	BatchSyncRecords  int
	BatchSyncInterval time.Duration
}

const (
	defaultSnapshotEvery     = 10_000
	defaultBatchSyncRecords  = 64
	defaultBatchSyncInterval = 100 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = defaultSnapshotEvery
	}
	if o.BatchSyncRecords <= 0 {
		o.BatchSyncRecords = defaultBatchSyncRecords
	}
	if o.BatchSyncInterval <= 0 {
		o.BatchSyncInterval = defaultBatchSyncInterval
	}
	return o
}

// Store is the durable backend: every read delegates to the embedded
// memstore, every mutation additionally appends a WAL record (or
// stages one, inside a batch).  It implements rdf.Store.
type Store struct {
	dir  string
	opts Options
	mem  *rdf.Graph

	// walMu serializes every touch of the WAL writer — appends, the
	// snapshot generation roll, and Close.  Mutations are single-writer
	// by the Store contract, but shutdown is not on that path: a signal
	// handler's Close may race an in-flight CommitBatch's fsync loop,
	// and a double Close must be an idempotent no-op rather than a
	// second close of the same file descriptor.
	walMu  sync.Mutex
	wal    *walWriter
	closed bool

	gen           atomic.Uint64
	mutsSinceSnap int

	batchOpen bool
	staged    []walOp

	// sticky I/O error: after a failed WAL append or snapshot the
	// in-memory state keeps working but Close reports the first
	// failure, and walErrors counts them for /metrics.
	err error

	walRecords       int64 // atomics, shared with the walWriter
	walBytes         int64
	walSyncs         int64
	walErrors        int64
	snapshots        int64
	lastSnapshotUnix int64
	recoveredTriples int64
	recoveredRecords int64
	truncatedBytes   int64
	fsyncHist        obs.Histogram

	// failSnapAfter is the snapshot crash-injection hook (see
	// writeSnapshot); -1 disables it.
	failSnapAfter int64
	// failAppend is the append-failure hook: when non-nil, the next WAL
	// append writes its record and then fails with it, as a failed
	// write would (see walWriter.append).  Tests only.
	failAppend error
}

var _ rdf.Store = (*Store)(nil)

func addInt64(p *int64, d int64) { atomic.AddInt64(p, d) }

func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%08d", gen) }

// parseGenName extracts the generation from a "snap-NNN" / "wal-NNN"
// file name.
func parseGenName(name, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix+"-")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	return gen, err == nil && gen > 0
}

// Open opens (or creates) the store in dir, running crash recovery:
// sweep temp files, load the newest valid snapshot, replay and
// truncate its WAL, resume appending.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	var snapGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if gen, ok := parseGenName(name, "snap"); ok {
			snapGens = append(snapGens, gen)
		} else if gen, ok := parseGenName(name, "wal"); ok {
			walGens = append(walGens, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	s := &Store{dir: dir, opts: opts, failSnapAfter: -1}

	// Pick the base state: the highest-generation snapshot that
	// validates.  A snapshot that fails its CRC is media corruption —
	// the tmp+rename protocol never leaves a torn one — and silently
	// replaying its WAL over the wrong base would fabricate state, so
	// corruption refuses to open rather than guess.
	if len(snapGens) > 0 {
		g, err := loadSnapshot(dir, snapGens[0])
		if err != nil {
			return nil, fmt.Errorf("durable: snapshot %s is corrupt: %w", snapName(snapGens[0]), err)
		}
		s.mem = g
		s.gen.Store(snapGens[0])
	} else {
		// No snapshot: the base state is empty, which is only correct
		// for generation 1 (later generations always have one; a lone
		// higher WAL means its snapshot vanished — refuse rather than
		// silently drop everything it assumed).
		s.mem = rdf.NewGraph()
		gen := uint64(1)
		if len(walGens) > 0 {
			sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
			gen = walGens[0]
			if gen > 1 {
				return nil, fmt.Errorf("durable: %s has no snapshot for its base state in %s", walName(gen), dir)
			}
		}
		s.gen.Store(gen)
	}
	s.recoveredTriples = int64(s.mem.Len())

	// Replay this generation's WAL over the base state, truncating
	// the torn tail, then reopen it for append at the valid end.
	walPath := filepath.Join(dir, walName(s.gen.Load()))
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: read WAL: %w", err)
	}
	// Runs of consecutive adds replay as AddTriples batches (bounded,
	// so the decoded run stays small beside the WAL bytes); a remove
	// flushes the run first, so the ops apply in log order.
	var run []rdf.Triple
	ops := 0
	flush := func() {
		s.mem.AddTriples(run)
		run = run[:0]
	}
	records, validBytes := parseWAL(data, func(op walOp) {
		ops++
		if op.remove {
			flush()
			s.mem.Remove(op.s, op.p, op.o)
			return
		}
		if run = append(run, rdf.Triple{S: op.s, P: op.p, O: op.o}); len(run) >= replayRun {
			flush()
		}
	})
	flush()
	s.recoveredRecords = int64(records)
	s.truncatedBytes = int64(len(data)) - validBytes
	s.mutsSinceSnap = ops // the snapshot schedule counts mutations, not records
	if s.truncatedBytes > 0 {
		if err := os.Truncate(walPath, validBytes); err != nil {
			return nil, fmt.Errorf("durable: truncate torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	if _, err := f.Seek(validBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: seek WAL: %w", err)
	}
	syncDir(dir)
	s.walRecords = int64(records)
	s.walBytes = validBytes
	s.wal = newWALWriter(f, validBytes, opts, &s.walRecords, &s.walBytes, &s.walSyncs, &s.fsyncHist)

	// Sweep files of other generations (crash leftovers between a
	// snapshot's rename and its cleanup).
	cur := s.gen.Load()
	for _, gen := range snapGens {
		if gen != cur {
			os.Remove(filepath.Join(dir, snapName(gen)))
		}
	}
	for _, gen := range walGens {
		if gen != cur {
			os.Remove(filepath.Join(dir, walName(gen)))
		}
	}
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// logOp records one mutation Add or Remove has applied: staged if a
// batch is open, else appended as its own WAL record (followed by a
// snapshot check).
func (s *Store) logOp(op walOp) {
	s.mutsSinceSnap++
	if s.batchOpen {
		s.staged = append(s.staged, op)
		return
	}
	s.appendRecord([]walOp{op})
	s.maybeSnapshot()
}

// replayRun bounds the run of consecutive adds recovery applies as one
// AddTriples batch.
const replayRun = 1 << 16

// appendRecord writes one WAL record under walMu, returning the
// append error after folding it into the sticky error (Add and Remove
// cannot return one; callers needing a hard guarantee use AddTriples,
// CommitBatch or Close).  Appending to a closed store is an error, not
// a crash: a drain that loses the race with shutdown surfaces as a
// failed commit.
func (s *Store) appendRecord(ops []walOp) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	var err error
	if s.closed || s.wal == nil {
		err = fmt.Errorf("durable: WAL append after Close")
	} else {
		err = s.wal.append(ops, s.failAppend)
		s.failAppend = nil
	}
	if err != nil {
		addInt64(&s.walErrors, 1)
		if s.err == nil {
			s.err = err
		}
	}
	return err
}

// maybeSnapshot rolls the generation when enough mutations have
// accumulated.  Never fires inside a batch: a batch is one atomic
// record and the snapshot boundary must not split it.
func (s *Store) maybeSnapshot() {
	if s.opts.SnapshotEvery <= 0 || s.batchOpen || s.mutsSinceSnap < s.opts.SnapshotEvery {
		return
	}
	if err := s.snapshot(); err != nil && s.err == nil {
		s.err = err
	}
}

// Snapshot forces a snapshot + generation roll now, regardless of the
// mutation count.
func (s *Store) Snapshot() error { return s.snapshot() }

func (s *Store) snapshot() error {
	if s.batchOpen {
		return fmt.Errorf("durable: snapshot inside an open batch")
	}
	// Fold the overlay into the base first so the dump is one sorted
	// array scan (and the reopened store starts compacted).
	s.mem.Compact()
	oldGen := s.gen.Load()
	newGen := oldGen + 1
	if err := writeSnapshot(s.dir, newGen, s.mem, s.failSnapAfter); err != nil {
		return err
	}
	// The snapshot is durable; mutations from here on belong to the
	// new generation's WAL.
	f, err := os.OpenFile(filepath.Join(s.dir, walName(newGen)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create WAL: %w", err)
	}
	syncDir(s.dir)
	s.walMu.Lock()
	if s.closed {
		// Shutdown won the race mid-roll: the new snapshot is already
		// durable, so just drop the fresh WAL handle and report.
		s.walMu.Unlock()
		f.Close()
		return fmt.Errorf("durable: snapshot after Close")
	}
	if err := s.wal.close(); err != nil && s.err == nil {
		s.err = err
	}
	s.wal = newWALWriter(f, 0, s.opts, &s.walRecords, &s.walBytes, &s.walSyncs, &s.fsyncHist)
	s.walMu.Unlock()
	atomic.StoreInt64(&s.walRecords, 0)
	atomic.StoreInt64(&s.walBytes, 0)
	s.gen.Store(newGen)
	s.mutsSinceSnap = 0
	addInt64(&s.snapshots, 1)
	atomic.StoreInt64(&s.lastSnapshotUnix, time.Now().Unix())
	os.Remove(filepath.Join(s.dir, snapName(oldGen)))
	os.Remove(filepath.Join(s.dir, walName(oldGen)))
	return nil
}

// DurableStats returns the backend's observability counters.  Safe to
// call concurrently with mutations.
func (s *Store) DurableStats() obs.DurableStats {
	return obs.DurableStats{
		Generation:               s.gen.Load(),
		WALRecords:               atomic.LoadInt64(&s.walRecords),
		WALBytes:                 atomic.LoadInt64(&s.walBytes),
		WALSyncs:                 atomic.LoadInt64(&s.walSyncs),
		WALErrors:                atomic.LoadInt64(&s.walErrors),
		Snapshots:                atomic.LoadInt64(&s.snapshots),
		LastSnapshotUnix:         atomic.LoadInt64(&s.lastSnapshotUnix),
		RecoveredSnapshotTriples: s.recoveredTriples,
		RecoveredWALRecords:      s.recoveredRecords,
		RecoveredTruncatedBytes:  s.truncatedBytes,
		FsyncLatency:             s.fsyncHist.Snapshot(),
	}
}

// Close flushes the WAL and closes it.  It returns the first I/O
// error the store swallowed on a mutation path, if any — the caller's
// last chance to learn a write never became durable.  Close is
// idempotent and safe to call concurrently with an in-flight
// CommitBatch (or another Close): whichever grabs walMu first wins,
// and the loser sees either a completed commit or a clean
// append-after-close error — never a write into a closed descriptor.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.wal != nil {
		if err := s.wal.close(); err != nil && s.err == nil {
			s.err = err
		}
		s.wal = nil
	}
	return s.err
}

// --- mutation surface: delegate + log ---

// AddTriples inserts a batch.  Outside an open batch it logs before
// it publishes: the new triples are appended as one WAL record, and
// only once that append — and any fsync the policy asks for — has
// succeeded are they applied; a failed append applies nothing, not
// even the epoch, and returns the error.  Inside a batch the new
// triples are applied and staged, like Add.
func (s *Store) AddTriples(ts []rdf.Triple) (int, error) {
	n, err := s.mem.AddTriplesLogged(ts, func(fresh []rdf.Triple) error {
		ops := make([]walOp, len(fresh))
		for i, t := range fresh {
			ops[i] = walOp{s: t.S, p: t.P, o: t.O}
		}
		if s.batchOpen {
			s.staged = append(s.staged, ops...)
			return nil
		}
		return s.appendRecord(ops)
	})
	s.mutsSinceSnap += n
	s.maybeSnapshot()
	return n, err
}

// Add inserts the triple and, if new, logs it.  Add cannot report a
// failed append, and answering false would claim the triple was
// already there, so it applies first and logs after: a failed append
// leaves the triple in memory and the error sticky for Close.  Callers
// that must know use AddTriples.
func (s *Store) Add(subj, pred, obj rdf.IRI) bool {
	if !s.mem.Add(subj, pred, obj) {
		return false
	}
	s.logOp(walOp{s: subj, p: pred, o: obj})
	return true
}

// AddTriple inserts t; it reports whether the triple was new.
func (s *Store) AddTriple(t rdf.Triple) bool { return s.Add(t.S, t.P, t.O) }

// AddAll inserts every triple of h as one AddTriples batch.
func (s *Store) AddAll(h rdf.Store) {
	ts := make([]rdf.Triple, 0, h.Len())
	h.ForEach(func(t rdf.Triple) bool {
		ts = append(ts, t)
		return true
	})
	s.AddTriples(ts)
}

// Remove deletes the triple and, if present, logs the removal, in
// Add's order: applied first, a failed append kept for Close.
func (s *Store) Remove(subj, pred, obj rdf.IRI) bool {
	if !s.mem.Remove(subj, pred, obj) {
		return false
	}
	s.logOp(walOp{remove: true, s: subj, p: pred, o: obj})
	return true
}

// BeginBatch opens a durability batch; see the rdf.Store contract.
func (s *Store) BeginBatch() {
	if s.batchOpen {
		panic("durable: BeginBatch with a batch already open")
	}
	s.batchOpen = true
	s.staged = s.staged[:0]
}

// CommitBatch persists the staged mutations as one atomic WAL record.
func (s *Store) CommitBatch() error {
	if !s.batchOpen {
		panic("durable: CommitBatch without an open batch")
	}
	s.batchOpen = false
	var err error
	if len(s.staged) > 0 {
		err = s.appendRecord(s.staged)
	}
	s.staged = s.staged[:0]
	s.maybeSnapshot()
	return err
}

// AbortBatch discards the staged records without writing anything.
func (s *Store) AbortBatch() {
	if !s.batchOpen {
		panic("durable: AbortBatch without an open batch")
	}
	s.batchOpen = false
	s.staged = s.staged[:0]
}

// --- read surface: pure delegation to the memstore ---

// Dict returns the store's interning dictionary.
func (s *Store) Dict() *rdf.Dict { return s.mem.Dict() }

// Len reports the number of triples in the store.
func (s *Store) Len() int { return s.mem.Len() }

// Epoch returns the mutation epoch.
func (s *Store) Epoch() uint64 { return s.mem.Epoch() }

// Stats returns the index layout snapshot of the embedded memstore.
func (s *Store) Stats() rdf.IndexStats { return s.mem.Stats() }

// Contains reports whether the triple (s, p, o) is in the store.
func (s *Store) Contains(subj, pred, obj rdf.IRI) bool { return s.mem.Contains(subj, pred, obj) }

// ContainsTriple reports whether t is in the store.
func (s *Store) ContainsTriple(t rdf.Triple) bool { return s.mem.ContainsTriple(t) }

// ContainsIDs is Contains in interned-ID space.
func (s *Store) ContainsIDs(subj, pred, obj rdf.ID) bool { return s.mem.ContainsIDs(subj, pred, obj) }

// Match calls fn for every matching triple; see rdf.Store.
func (s *Store) Match(subj, pred, obj *rdf.IRI, fn func(rdf.Triple) bool) {
	s.mem.Match(subj, pred, obj, fn)
}

// MatchIDs is the ID-native Match; the memstore's sorted-emission
// contract passes through unchanged.
func (s *Store) MatchIDs(subj, pred, obj *rdf.ID, fn func(rdf.IDTriple) bool) {
	s.mem.MatchIDs(subj, pred, obj, fn)
}

// CountMatch counts matching triples without enumerating them.
func (s *Store) CountMatch(subj, pred, obj *rdf.IRI) int { return s.mem.CountMatch(subj, pred, obj) }

// CountMatchIDs is the ID-native CountMatch.
func (s *Store) CountMatchIDs(subj, pred, obj *rdf.ID) int {
	return s.mem.CountMatchIDs(subj, pred, obj)
}

// SampleIDs calls fn for up to m evenly spaced matches.
func (s *Store) SampleIDs(subj, pred, obj *rdf.ID, m int, fn func(rdf.IDTriple) bool) {
	s.mem.SampleIDs(subj, pred, obj, m, fn)
}

// ForEach calls fn for every triple in ascending (S, P, O) ID order.
func (s *Store) ForEach(fn func(rdf.Triple) bool) { s.mem.ForEach(fn) }

// Triples returns all triples sorted lexicographically.
func (s *Store) Triples() []rdf.Triple { return s.mem.Triples() }

// IRIs returns the sorted set of IRIs mentioned in some triple.
func (s *Store) IRIs() []rdf.IRI { return s.mem.IRIs() }

// MentionsIRI reports whether iri occurs in some triple.
func (s *Store) MentionsIRI(iri rdf.IRI) bool { return s.mem.MentionsIRI(iri) }

// Equal reports whether the store and h hold the same triples.
func (s *Store) Equal(h rdf.Store) bool { return s.mem.Equal(h) }

// IsSubgraphOf reports whether every triple of the store is in h.
func (s *Store) IsSubgraphOf(h rdf.Store) bool { return s.mem.IsSubgraphOf(h) }

// String renders the contents as sorted N-Triples statements.
func (s *Store) String() string { return s.mem.String() }

// AcquireRead opens a read snapshot on the embedded memstore.
func (s *Store) AcquireRead() (release func()) { return s.mem.AcquireRead() }

// Compact merges the memstore's delta overlay into its sorted base.
// Compaction is a physical reorganization, not a logical mutation, so
// no WAL record is written.
func (s *Store) Compact() bool { return s.mem.Compact() }

// SetCompactionThreshold tunes the memstore's compaction trigger.
func (s *Store) SetCompactionThreshold(n int) { s.mem.SetCompactionThreshold(n) }
