package rdf

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
)

// Graph is a finite set of RDF triples stored as three flat sorted
// permutation indexes — []IDTriple arrays in SPO, POS and OSP order —
// plus a small mutable delta overlay (see sorted.go).  Every
// bound/wildcard combination of Match/MatchIDs/CountMatch resolves to a
// binary-search prefix range over one permutation, so matching is a
// cache-friendly array scan and counting is O(log n), with the overlay
// merged in when non-empty.  Mutations go to the overlay in O(1) (plus
// an O(log n) base membership probe) and compact into the base arrays
// when the delta crosses a threshold (see maybeCompact).
//
// # Iteration order
//
// MatchIDs emits triples in ascending key order of the permutation it
// selects for the bound positions (SPO when S or S,P are bound or
// nothing is; POS for P or P,O; OSP for O or S,O).  This determinism is
// a contract: the merge-join fast path of internal/sparql relies on
// scans sharing a leading sort key arriving in that key's order, and
// ForEach/Triples/IRIs inherit reproducible output from it.
//
// # Concurrency
//
// A Graph is safe for any number of concurrent *readers*: every read
// path (Match, MatchIDs, Contains, ContainsIDs, CountMatch, ForEach,
// Len, and Dict.Lookup/Dict.IRI on the graph's dictionary) only reads
// the base arrays, the overlay and the dictionary.  The one internal
// write a read may perform — rebuilding the overlay's sorted views
// after a mutation — is double-checked under the overlay mutex and
// published through an atomic flag, so racing readers stay safe.  The
// servers rely on this: concurrent queries probe the indexes of one
// graph simultaneously.
//
// Mutation (Add, AddTriple, AddAll, Remove, Compact) is not safe
// concurrently with anything, readers included; callers serialize
// writes against reads externally (nsserve uses an RWMutex).  As a
// defense-in-depth check, a reader may hold a read snapshot
// (AcquireRead) for the duration of a multi-goroutine read; mutating
// the graph while a snapshot is held panics immediately instead of
// corrupting an index under a concurrent probe, and compaction is
// deferred until the snapshots drain.
type Graph struct {
	dict *Dict
	n    int
	base [3][]IDTriple // sorted permutation arrays, indexed by perm
	ov   overlay

	compactAt   int          // overlay size that triggers compaction; 0 = automatic
	compactions atomic.Int64 // total compaction passes (stats)
	epoch       atomic.Uint64
	readers     atomic.Int32 // active read snapshots (AcquireRead)
}

// IDTriple is a triple in interned-ID space.  It is the currency of the
// ID-native evaluation path: matching and joining operate on machine
// words, and IRIs are materialized only at query boundaries.
type IDTriple struct {
	S, P, O ID
}

// Dict returns the graph's interning dictionary.  Callers may read it
// freely (Lookup, IRI); interning new terms while other goroutines read
// the graph is not safe.
func (g *Graph) Dict() *Dict { return g.dict }

// NewGraph returns an empty RDF graph.
func NewGraph() *Graph {
	return &Graph{dict: NewDict(), ov: newOverlay()}
}

// FromTriples builds a graph from the given triples.
func FromTriples(ts ...Triple) *Graph {
	g := NewGraph()
	g.AddTriples(ts)
	return g
}

// AcquireRead opens a read snapshot: until the returned release func
// runs, any mutation of the graph panics and Compact defers.  It is a
// guard, not a lock — readers are not serialized against each other
// (they never need to be), and the cost is one atomic increment per
// snapshot, not per read.  Views delta maintenance holds a snapshot
// for the duration of a delta evaluation so that a misplaced write
// fails loudly at the write site instead of as index corruption in a
// reader.
func (g *Graph) AcquireRead() (release func()) {
	g.readers.Add(1)
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			g.readers.Add(-1)
		}
	}
}

// assertWritable panics when a mutation races an active read snapshot.
// The message names the live holder count so the offending reader is
// identifiable from the stack alone; the fix is always the same — run
// the release func each AcquireRead returned (the snapshot's Release)
// before mutating.
func (g *Graph) assertWritable() {
	if n := g.readers.Load(); n != 0 {
		panic(fmt.Sprintf(
			"rdf: graph mutated while %d read snapshot(s) are held; "+
				"call the release func returned by each AcquireRead (Release) before mutating "+
				"(see the Store snapshot-guard contract)", n))
	}
}

// BeginBatch, CommitBatch and AbortBatch are the durability-staging
// hooks of the Store interface.  The memstore has no log to stage, so
// all three are no-ops: mutations are immediately "durable" in the
// only sense an in-memory backend has.
func (g *Graph) BeginBatch() {}

// CommitBatch is a no-op for the memstore; see BeginBatch.
func (g *Graph) CommitBatch() error { return nil }

// AbortBatch is a no-op for the memstore; see BeginBatch.
func (g *Graph) AbortBatch() {}

// Close is a no-op for the memstore: there are no backend resources to
// release.
func (g *Graph) Close() error { return nil }

// Epoch returns the graph's mutation epoch: a counter bumped on every
// successful Add or Remove.  Callers that cache anything derived from
// graph statistics (nsserve's plan cache) compare it with the epoch
// they last checked the statistics at, to know when to check them
// again.  Reading the epoch is atomic, but a
// consistent (epoch, contents) pair still needs the caller's external
// read lock.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// inBase reports whether t is in the sorted base arrays (ignoring the
// overlay).
func (g *Graph) inBase(t IDTriple) bool {
	return findTriple(g.base[permSPO], permSPO, t)
}

// Add inserts the triple (s, p, o); it reports whether the triple was new.
func (g *Graph) Add(s, p, o IRI) bool {
	g.assertWritable()
	t := IDTriple{S: g.dict.Intern(s), P: g.dict.Intern(p), O: g.dict.Intern(o)}
	if _, pending := g.ov.dels[t]; pending {
		// Re-adding a base triple with a pending delete: cancel the delete.
		delete(g.ov.dels, t)
	} else if _, dup := g.ov.adds[t]; dup {
		return false
	} else if g.inBase(t) {
		return false
	} else {
		g.ov.adds[t] = struct{}{}
	}
	g.ov.markDirty()
	g.n++
	g.epoch.Add(1)
	g.maybeCompact()
	return true
}

// AddTriple inserts t; it reports whether the triple was new.
func (g *Graph) AddTriple(t Triple) bool { return g.Add(t.S, t.P, t.O) }

// AddAll inserts every triple of h into g as one AddTriples batch.
func (g *Graph) AddAll(h Store) {
	ts := make([]Triple, 0, h.Len())
	h.ForEach(func(t Triple) bool {
		ts = append(ts, t)
		return true
	})
	g.AddTriples(ts)
}

// Remove deletes the triple (s, p, o); it reports whether it was present.
func (g *Graph) Remove(s, p, o IRI) bool {
	g.assertWritable()
	si, ok := g.dict.Lookup(s)
	if !ok {
		return false
	}
	pi, ok := g.dict.Lookup(p)
	if !ok {
		return false
	}
	oi, ok := g.dict.Lookup(o)
	if !ok {
		return false
	}
	t := IDTriple{S: si, P: pi, O: oi}
	if _, ok := g.ov.adds[t]; ok {
		delete(g.ov.adds, t)
	} else if _, gone := g.ov.dels[t]; !gone && g.inBase(t) {
		g.ov.dels[t] = struct{}{}
	} else {
		return false
	}
	g.ov.markDirty()
	g.n--
	g.epoch.Add(1)
	g.maybeCompact()
	return true
}

// defaultCompactMin is the floor of the automatic compaction
// threshold: below it, merging the overlay into the base on every
// mutation would dominate mutation cost.
const defaultCompactMin = 1024

// compactThreshold is the overlay size at which mutations trigger a
// compaction: max(defaultCompactMin, n/8) unless SetCompactionThreshold
// overrode it.  The n/8 term grows the delta budget with the graph, so
// a bulk load compacts O(log n) times and amortizes to O(n) merged
// triples per base size doubling.
func (g *Graph) compactThreshold() int {
	if g.compactAt > 0 {
		return g.compactAt
	}
	t := len(g.base[permSPO]) / 8
	if t < defaultCompactMin {
		t = defaultCompactMin
	}
	return t
}

// SetCompactionThreshold overrides the overlay size that triggers
// compaction (n <= 0 restores the automatic threshold).  It is a
// tuning/test knob, not a mutation: the graph's contents are
// unaffected.  The new threshold takes effect on the next mutation.
func (g *Graph) SetCompactionThreshold(n int) {
	if n <= 0 {
		n = 0
	}
	g.compactAt = n
}

// maybeCompact runs a compaction when the overlay crossed the
// threshold.  Called only from mutation paths, which assertWritable
// already proved reader-free.
func (g *Graph) maybeCompact() {
	if g.ov.size() >= g.compactThreshold() {
		g.compact(nil)
	}
}

// Compact merges the overlay into the sorted base arrays now,
// reporting whether the merge ran.  While an AcquireRead snapshot is
// held the compaction is deferred (returns false) — the next mutation
// or Compact call after the snapshots drain picks it up — so a
// snapshot's readers never observe the base arrays moving.
func (g *Graph) Compact() bool {
	if g.readers.Load() != 0 {
		return false
	}
	if !g.ov.isEmpty() {
		g.compact(nil)
	}
	return true
}

// compact merges adds and dels, together with run — SPO-sorted
// triples absent from both base and overlay, nil for none — into the
// base arrays in one pass per permutation, and resets the overlay.
// Callers guarantee no concurrent readers.
func (g *Graph) compact(run []IDTriple) {
	addV, delV := g.ov.views()
	runs := sortedPerms(run, g.dict.Len())
	for k := permSPO; k <= permOSP; k++ {
		g.base[k] = mergeCompact(k, g.base[k], mergeDisjoint(k, addV[k], runs[k]), delV[k])
	}
	g.ov.reset()
	g.compactions.Add(1)
}

// IndexStats is a point-in-time snapshot of the storage layer: the
// logical triple count, how it splits across the sorted base and the
// delta overlay, and how often the overlay has been compacted.  Reading
// it follows the same rules as any other graph read.
type IndexStats struct {
	Triples     int    // logical |G|
	BaseTriples int    // triples in the sorted base arrays
	OverlayAdds int    // pending inserts not yet compacted
	OverlayDels int    // pending deletes not yet compacted
	Compactions int64  // total compaction passes
	Epoch       uint64 // mutation epoch (see Epoch)
}

// Stats returns the storage layer snapshot.
func (g *Graph) Stats() IndexStats {
	return IndexStats{
		Triples:     g.n,
		BaseTriples: len(g.base[permSPO]),
		OverlayAdds: len(g.ov.adds),
		OverlayDels: len(g.ov.dels),
		Compactions: g.compactions.Load(),
		Epoch:       g.epoch.Load(),
	}
}

// Contains reports whether the triple (s, p, o) is in the graph.
func (g *Graph) Contains(s, p, o IRI) bool {
	si, ok := g.dict.Lookup(s)
	if !ok {
		return false
	}
	pi, ok := g.dict.Lookup(p)
	if !ok {
		return false
	}
	oi, ok := g.dict.Lookup(o)
	if !ok {
		return false
	}
	return g.ContainsIDs(si, pi, oi)
}

// ContainsTriple reports whether t is in the graph.
func (g *Graph) ContainsTriple(t Triple) bool { return g.Contains(t.S, t.P, t.O) }

// ContainsIDs reports whether the triple (s, p, o), given in
// interned-ID space, is in the graph: an O(1) overlay probe plus an
// O(log n) binary search of the base.
func (g *Graph) ContainsIDs(s, p, o ID) bool {
	t := IDTriple{S: s, P: p, O: o}
	if _, ok := g.ov.adds[t]; ok {
		return true
	}
	if _, ok := g.ov.dels[t]; ok {
		return false
	}
	return g.inBase(t)
}

// Len reports the number of triples in the graph.
func (g *Graph) Len() int { return g.n }

// ForEach calls fn for every triple in the graph until fn returns
// false, in ascending (S, P, O) ID order.
func (g *Graph) ForEach(fn func(Triple) bool) {
	g.MatchIDs(nil, nil, nil, func(t IDTriple) bool {
		return fn(Triple{S: g.dict.IRI(t.S), P: g.dict.IRI(t.P), O: g.dict.IRI(t.O)})
	})
}

// Triples returns all triples, sorted lexicographically, for
// deterministic output.  The slice is preallocated to the exact size;
// the sort is still needed because dictionary ID order is interning
// order, not IRI order.
func (g *Graph) Triples() []Triple {
	ts := make([]Triple, 0, g.n)
	g.ForEach(func(t Triple) bool { ts = append(ts, t); return true })
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	return ts
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	h := NewGraph()
	h.AddAll(g)
	return h
}

// Union returns a new graph containing the triples of both g and h.
func (g *Graph) Union(h Store) *Graph {
	u := g.Clone()
	u.AddAll(h)
	return u
}

// IsSubgraphOf reports whether every triple of g is in h (g ⊆ h).
func (g *Graph) IsSubgraphOf(h Store) bool {
	ok := true
	g.ForEach(func(t Triple) bool {
		if !h.ContainsTriple(t) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Equal reports whether g and h contain exactly the same triples.
func (g *Graph) Equal(h Store) bool {
	return g.n == h.Len() && g.IsSubgraphOf(h)
}

// IRIs returns the sorted set of IRIs mentioned in the graph, I(G).
// Mentioned IDs are collected in a bitset over the dictionary (the
// dictionary may hold IRIs whose triples were removed, so it cannot be
// returned wholesale), and the output is preallocated to the exact
// size before the final lexicographic sort.
func (g *Graph) IRIs() []IRI {
	words := make([]uint64, (g.dict.Len()+63)/64)
	mark := func(id ID) { words[id/64] |= 1 << (id % 64) }
	g.MatchIDs(nil, nil, nil, func(t IDTriple) bool {
		mark(t.S)
		mark(t.P)
		mark(t.O)
		return true
	})
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	out := make([]IRI, 0, n)
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, g.dict.IRI(ID(wi*64+bits.TrailingZeros64(w))))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MentionsIRI reports whether iri occurs in some triple of the graph:
// three O(log n) prefix counts, one per position.
func (g *Graph) MentionsIRI(iri IRI) bool {
	id, ok := g.dict.Lookup(iri)
	if !ok {
		return false
	}
	return g.CountMatchIDs(&id, nil, nil) > 0 ||
		g.CountMatchIDs(nil, &id, nil) > 0 ||
		g.CountMatchIDs(nil, nil, &id) > 0
}

// Match calls fn for every triple matching the given positions, where a
// nil position is a wildcard, until fn returns false.  The best index
// for the bound positions is chosen automatically; see MatchIDs for the
// emission-order contract.
func (g *Graph) Match(s, p, o *IRI, fn func(Triple) bool) {
	var si, pi, oi *ID
	var ok bool
	if s != nil {
		var id ID
		if id, ok = g.dict.Lookup(*s); !ok {
			return
		}
		si = &id
	}
	if p != nil {
		var id ID
		if id, ok = g.dict.Lookup(*p); !ok {
			return
		}
		pi = &id
	}
	if o != nil {
		var id ID
		if id, ok = g.dict.Lookup(*o); !ok {
			return
		}
		oi = &id
	}
	g.MatchIDs(si, pi, oi, func(t IDTriple) bool {
		return fn(Triple{S: g.dict.IRI(t.S), P: g.dict.IRI(t.P), O: g.dict.IRI(t.O)})
	})
}

// chooseIndex maps the bound positions onto a permutation and a prefix:
// the permutation whose key order leads with the bound positions, so
// the matches form one contiguous range.  The fully-bound case is
// handled by ContainsIDs before this table applies.
func chooseIndex(s, p, o *ID) (k perm, depth int, a, b ID) {
	switch {
	case s != nil && p != nil:
		return permSPO, 2, *s, *p
	case p != nil && o != nil:
		return permPOS, 2, *p, *o
	case s != nil && o != nil:
		return permOSP, 2, *o, *s
	case s != nil:
		return permSPO, 1, *s, 0
	case p != nil:
		return permPOS, 1, *p, 0
	case o != nil:
		return permOSP, 1, *o, 0
	default:
		return permSPO, 0, 0, 0
	}
}

// MatchIDs is the ID-native counterpart of Match: positions are interned
// IDs (nil = wildcard) and fn receives ID triples, with no string
// conversion on the hot path.  The best permutation for the bound
// positions is chosen automatically and triples are emitted in
// ascending key order of that permutation (see the Graph doc comment) —
// a contract the merge-join fast path depends on.
func (g *Graph) MatchIDs(s, p, o *ID, fn func(IDTriple) bool) {
	if s != nil && p != nil && o != nil {
		if g.ContainsIDs(*s, *p, *o) {
			fn(IDTriple{S: *s, P: *p, O: *o})
		}
		return
	}
	k, depth, a, b := chooseIndex(s, p, o)
	base := g.base[k]
	lo, hi := rangeOf(base, k, depth, a, b)
	if g.ov.isEmpty() {
		for i := lo; i < hi; i++ {
			if !fn(base[i]) {
				return
			}
		}
		return
	}
	addV, delV := g.ov.views()
	alo, ahi := rangeOf(addV[k], k, depth, a, b)
	dlo, dhi := rangeOf(delV[k], k, depth, a, b)
	mergeEmit(k, base[lo:hi], addV[k][alo:ahi], delV[k][dlo:dhi], fn)
}

// CountMatch returns the number of triples matching the given
// positions (nil = wildcard) without enumerating them — O(log n)
// binary-search prefix counts over the base and overlay views; used for
// exact cardinality estimation by the query planner.
func (g *Graph) CountMatch(s, p, o *IRI) int {
	var si, pi, oi *ID
	var ok bool
	if s != nil {
		var id ID
		if id, ok = g.dict.Lookup(*s); !ok {
			return 0
		}
		si = &id
	}
	if p != nil {
		var id ID
		if id, ok = g.dict.Lookup(*p); !ok {
			return 0
		}
		pi = &id
	}
	if o != nil {
		var id ID
		if id, ok = g.dict.Lookup(*o); !ok {
			return 0
		}
		oi = &id
	}
	return g.CountMatchIDs(si, pi, oi)
}

// CountMatchIDs is the ID-native counterpart of CountMatch: exact match
// counts in O(log n), with the overlay's adds and dels adjusting the
// base range width.
func (g *Graph) CountMatchIDs(s, p, o *ID) int {
	if s != nil && p != nil && o != nil {
		if g.ContainsIDs(*s, *p, *o) {
			return 1
		}
		return 0
	}
	k, depth, a, b := chooseIndex(s, p, o)
	lo, hi := rangeOf(g.base[k], k, depth, a, b)
	n := hi - lo
	if !g.ov.isEmpty() {
		addV, delV := g.ov.views()
		alo, ahi := rangeOf(addV[k], k, depth, a, b)
		dlo, dhi := rangeOf(delV[k], k, depth, a, b)
		n += (ahi - alo) - (dhi - dlo)
	}
	return n
}

// SampleIDs calls fn for up to m matches of the given positions taken
// at evenly spaced positions — every match when there are at most m —
// until fn returns false.  Beyond m matches, with an empty overlay
// sample j is the match at position ⌊j·n/m⌋ of MatchIDs' emission;
// with one, positions run over the base range followed by the added
// range, and a position holding a deleted triple yields nothing.  Each
// sample is found by position, so the cost is O(m log n) however wide
// the range is.
func (g *Graph) SampleIDs(s, p, o *ID, m int, fn func(IDTriple) bool) {
	if m <= 0 {
		return
	}
	if s != nil && p != nil && o != nil {
		g.MatchIDs(s, p, o, fn)
		return
	}
	k, depth, a, b := chooseIndex(s, p, o)
	lo, hi := rangeOf(g.base[k], k, depth, a, b)
	base := g.base[k][lo:hi]
	var add, del []IDTriple
	if !g.ov.isEmpty() {
		addV, delV := g.ov.views()
		alo, ahi := rangeOf(addV[k], k, depth, a, b)
		dlo, dhi := rangeOf(delV[k], k, depth, a, b)
		add, del = addV[k][alo:ahi], delV[k][dlo:dhi]
	}
	n := len(base) + len(add)
	if n-len(del) <= m {
		mergeEmit(k, base, add, del, fn)
		return
	}
	for j := 0; j < m; j++ {
		var t IDTriple
		if i := j * n / m; i >= len(base) {
			t = add[i-len(base)]
		} else if t = base[i]; len(del) > 0 && findTriple(del, k, t) {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// MatchScan is the unindexed counterpart of Match: it scans every triple
// of the graph and filters.  It exists for the index-ablation benchmark
// (E25) and as the oracle of the index property tests.
func (g *Graph) MatchScan(s, p, o *IRI, fn func(Triple) bool) {
	g.ForEach(func(t Triple) bool {
		if s != nil && t.S != *s {
			return true
		}
		if p != nil && t.P != *p {
			return true
		}
		if o != nil && t.O != *o {
			return true
		}
		return fn(t)
	})
}

// String renders the graph as sorted N-Triples statements.
func (g *Graph) String() string {
	var b strings.Builder
	for _, t := range g.Triples() {
		b.WriteString(t.NTriples())
		b.WriteByte('\n')
	}
	return b.String()
}
