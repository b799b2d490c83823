package rdf

// Store is the storage interface of the engine: everything above this
// package — the row engine (internal/sparql), the planner
// (internal/plan), the executor (internal/exec), view maintenance
// (internal/views) and the cmd tools — talks to a triple store
// exclusively through it.  *Graph (the in-memory sorted-index engine,
// the "memstore" backend) is the default implementation;
// internal/rdf/durable wraps it with a write-ahead log and snapshots
// for crash recovery.  The interface is deliberately rich rather than
// minimal: a backend delegates the read surface wholesale, and the
// engine never needs to name a concrete backend type.
//
// # Sorted-emission contract
//
// MatchIDs(s, p, o, fn) picks the permutation index whose key order
// leads with the bound positions (SPO for S or S,P or nothing; POS for
// P or P,O; OSP for O or S,O) and emits matches in ascending key order
// of that permutation.  This determinism is load-bearing: the
// merge-join fast path of internal/sparql requires two scans sharing a
// leading sort variable to arrive in that variable's ID order, and
// ForEach/Triples inherit reproducible output from it.  Every backend
// must preserve the contract exactly; the differential tests
// (internal/sparql/rowengine_test.go, internal/rdf/durable) hold all
// backends to the same answer sets and emission orders.
//
// # Snapshot-guard contract
//
// A Store is safe for any number of concurrent readers, but mutation
// (Add, AddTriple, AddAll, Remove, Compact) is not safe concurrently
// with anything, readers included; callers serialize writes against
// reads externally (nsserve uses an RWMutex).  AcquireRead is the
// defense-in-depth guard on that contract: it opens a read snapshot,
// and until the returned release func runs, any mutation panics —
// naming the live holder count — instead of corrupting an index under
// a concurrent probe, and Compact defers (returns false) rather than
// moving the base arrays a reader is scanning.  Parallel evaluation
// paths that fan a store out across worker goroutines hold a snapshot
// for the duration of the fan-out.  Release is idempotent; every
// acquired snapshot must be released before the next mutation.
//
// # Batch staging
//
// BeginBatch/CommitBatch/AbortBatch stage *durability*, not
// visibility: mutations inside a batch are applied to the in-memory
// indexes immediately (the caller's subsequent reads see them — view
// delta evaluation depends on that) but a durable backend withholds
// their log records until CommitBatch, which persists the whole batch
// as one atomic WAL record.  AbortBatch discards the staged records
// without writing anything; the caller is responsible for having
// undone the in-memory mutations first (the atomic unwind in
// internal/views issues compensating Removes inside the same batch, so
// a rolled-back insert leaves no committed WAL records).  Batches do
// not nest; the in-memory backend implements all three as no-ops.
type Store interface {
	// Dict returns the store's interning dictionary.  Callers may read
	// it freely; interning new terms while other goroutines read the
	// store is not safe.
	Dict() *Dict
	// Len reports the number of triples in the store.
	Len() int
	// Epoch returns the mutation epoch: a counter bumped on every
	// successful Add or Remove, used to tell when caches derived from
	// the store's contents need checking (nsserve's plan cache).
	Epoch() uint64
	// Stats returns a point-in-time snapshot of the index layout.
	Stats() IndexStats

	// Add inserts the triple (s, p, o); it reports whether the triple
	// was new.
	Add(s, p, o IRI) bool
	// AddTriple inserts t; it reports whether the triple was new.
	AddTriple(t Triple) bool
	// AddAll inserts every triple of h.
	AddAll(h Store)
	// Remove deletes the triple (s, p, o); it reports whether it was
	// present.
	Remove(s, p, o IRI) bool

	// BeginBatch opens a durability batch (see the type comment).  It
	// panics if a batch is already open: stores are single-writer.
	BeginBatch()
	// CommitBatch persists the batch's staged mutations atomically and
	// closes the batch.  On error the staged records are discarded and
	// the in-memory state is NOT reverted; callers that need atomicity
	// unwind and re-sync as internal/views does.
	CommitBatch() error
	// AbortBatch discards the staged records and closes the batch,
	// leaving the in-memory state as the caller arranged it.
	AbortBatch()

	// Contains reports whether the triple (s, p, o) is in the store.
	Contains(s, p, o IRI) bool
	// ContainsTriple reports whether t is in the store.
	ContainsTriple(t Triple) bool
	// ContainsIDs is Contains in interned-ID space.
	ContainsIDs(s, p, o ID) bool
	// Match calls fn for every triple matching the given positions
	// (nil = wildcard) until fn returns false.
	Match(s, p, o *IRI, fn func(Triple) bool)
	// MatchIDs is the ID-native Match; see the sorted-emission
	// contract above.
	MatchIDs(s, p, o *ID, fn func(IDTriple) bool)
	// CountMatch returns the number of matching triples without
	// enumerating them.
	CountMatch(s, p, o *IRI) int
	// CountMatchIDs is the ID-native CountMatch: exact counts in
	// O(log n), the planner's cardinality source.
	CountMatchIDs(s, p, o *ID) int
	// SampleIDs calls fn for up to m matches taken at evenly spaced
	// positions of the index range — every match when there are at
	// most m — until fn returns false, in O(m log n) whatever the
	// range's size; the planner's pair probes bind such a sample.
	SampleIDs(s, p, o *ID, m int, fn func(IDTriple) bool)
	// ForEach calls fn for every triple until fn returns false, in
	// ascending (S, P, O) ID order.
	ForEach(fn func(Triple) bool)
	// Triples returns all triples sorted lexicographically.
	Triples() []Triple
	// IRIs returns the sorted set of IRIs mentioned in some triple.
	IRIs() []IRI
	// MentionsIRI reports whether iri occurs in some triple.
	MentionsIRI(iri IRI) bool
	// Equal reports whether the store and h hold exactly the same
	// triples.
	Equal(h Store) bool
	// IsSubgraphOf reports whether every triple of the store is in h.
	IsSubgraphOf(h Store) bool
	// String renders the contents as sorted N-Triples statements.
	String() string

	// AcquireRead opens a read snapshot; see the snapshot-guard
	// contract above.  The release func is idempotent.
	AcquireRead() (release func())
	// Compact merges any mutable delta into the sorted base now,
	// reporting whether the merge ran; it defers (returns false) while
	// read snapshots are held.
	Compact() bool
	// SetCompactionThreshold overrides the delta size that triggers
	// automatic compaction (n <= 0 restores the default).
	SetCompactionThreshold(n int)

	// Close releases backend resources (files, for durable backends)
	// after flushing pending state.  The in-memory backend's Close is
	// a no-op.  A closed store must not be used again.
	Close() error
}

// Graph is the memstore backend.
var _ Store = (*Graph)(nil)

// NewStore returns an empty in-memory store — the default memstore
// backend, typed as the interface.
func NewStore() Store { return NewGraph() }

// CloneStore copies the contents of any store into a fresh in-memory
// memstore.  Views use it to snapshot their base graph regardless of
// the backend the caller hands them.
func CloneStore(s Store) Store {
	g := NewGraph()
	s.ForEach(func(t Triple) bool {
		g.AddTriple(t)
		return true
	})
	return g
}
