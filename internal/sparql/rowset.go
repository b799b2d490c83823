package sparql

import (
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// RowSet is the ID-native counterpart of MappingSet: a set of rows over
// one VarSchema with deterministic (insertion) iteration order.
//
// The rows live in two append-only arrays — one presence mask per row,
// and the ID vectors back to back — and that is all most RowSets ever
// are.  The operators of the algebra are defined over sets, but most
// of them cannot produce a duplicate from duplicate-free operands (an
// index scan, FILTER, ∖, NS, ⋈ of two single-domain sides, the two
// halves of OPT; DESIGN.md §6 has the table and the proofs), so they
// append without looking.  Set membership — an open-addressed table of
// row indices over the same arrays — is built on the first Add or
// Contains and kept current from then on; only the operators that can
// meet a duplicate (⋈ over mixed domains, UNION of overlapping
// domains, SELECT) and callers outside the engine pay for it.
//
// A RowSet is not safe for concurrent use: operators mutate scratch
// state (the membership table, the cached chain index below) even on
// the "read" side.  The parallel operators therefore build any shared
// index before fanning out and their workers only read it.
type RowSet struct {
	Schema *VarSchema
	masks  []uint64
	ids    []rdf.ID // len = len(masks) * Schema.Len(); cap ≥ cap(masks) * Schema.Len()

	// Running OR of the masks and of their complements: some has the
	// slots bound in at least one row, miss the slots unbound in at
	// least one.  Both are O(1) to keep and make the two questions the
	// operators ask O(1) to answer: which slots every row binds
	// (alwaysBoundMask), and whether all rows share one domain (uniform).
	some, miss uint64

	// Membership table (linear probing; -1 = empty slot) over rows
	// [0, tabled); nil until an Add or Contains needs it.
	table  []int32
	tabled int

	// free is where the backing arrays came from and go back to
	// (Release); nil for sets built outside an evaluation.
	free *freeList

	// Cached chain index (see chainIndex): Join, Diff and LeftJoin on
	// the same receiver with the same key reuse it instead of
	// rebuilding it per call, and repeated evaluations (views,
	// benchmarks) pay for the index once.
	idxKey  uint64
	idxRows int
	idx     chainIdx

	// dedup counts the rows the membership table rejected as
	// duplicates.  Rows an operator appended without a lookup can never
	// count here.  Plain (not atomic): a RowSet is single-writer by
	// contract, and the partition merge folds partition counts in.
	dedup int64
}

// NewRowSet returns an empty set of rows over the schema.
func NewRowSet(sc *VarSchema) *RowSet {
	return &RowSet{Schema: sc}
}

// newRowSet returns an empty set with room for n rows, drawing the
// arrays from free when it has a pair that large.
func newRowSet(sc *VarSchema, free *freeList, n int) *RowSet {
	s := &RowSet{Schema: sc, free: free}
	s.masks, s.ids = free.get(n, sc.Len())
	return s
}

// like returns an empty set over the receiver's schema and free list
// with room for n rows: where every operator gets its output from.
func (s *RowSet) like(n int) *RowSet { return newRowSet(s.Schema, s.free, n) }

// Release hands the backing arrays to the evaluation's free list for
// the next operator to fill, and leaves the set empty.  Call it on an
// intermediate result once the operator consuming it has returned; a
// set built outside an evaluation has no free list and Release does
// nothing.
func (s *RowSet) Release() {
	if s == nil || s.free == nil {
		return
	}
	s.free.put(s.masks, s.ids)
	*s = RowSet{Schema: s.Schema, free: s.free}
}

// freeList is an evaluation-scoped stock of RowSet backing arrays: an
// evaluator gives every set it creates a pointer to its list, operators
// draw their outputs from the list of their receiver, and the
// evaluator returns each intermediate set once its consumer is done —
// so a deep plan cycles through a handful of array pairs instead of
// allocating (and zeroing) a pair per operator.  All pairs of one list
// have the same row width.  The mutex is taken once per operator and
// worker, never per row.
type freeList struct {
	mu   sync.Mutex
	sets []rowArrays
}

type rowArrays struct {
	masks []uint64
	ids   []rdf.ID
}

// get returns empty arrays with room for n rows of width w: the
// smallest stocked pair that is large enough, or new ones.
func (f *freeList) get(n, w int) ([]uint64, []rdf.ID) {
	if f != nil {
		f.mu.Lock()
		best := -1
		for i, a := range f.sets {
			if cap(a.masks) >= n && (best < 0 || cap(a.masks) < cap(f.sets[best].masks)) {
				best = i
			}
		}
		if best >= 0 {
			a := f.sets[best]
			last := len(f.sets) - 1
			f.sets[best], f.sets[last] = f.sets[last], rowArrays{}
			f.sets = f.sets[:last]
			f.mu.Unlock()
			return a.masks[:0], a.ids[:0]
		}
		f.mu.Unlock()
	}
	return make([]uint64, 0, n), make([]rdf.ID, 0, n*w)
}

func (f *freeList) put(masks []uint64, ids []rdf.ID) {
	if f == nil || cap(masks) == 0 {
		return
	}
	f.mu.Lock()
	f.sets = append(f.sets, rowArrays{masks, ids})
	f.mu.Unlock()
}

// Len reports the number of rows.
func (s *RowSet) Len() int { return len(s.masks) }

// Mask returns the presence bitset of row i.
func (s *RowSet) Mask(i int) uint64 { return s.masks[i] }

// RowIDs returns the ID vector of row i as a view into the backing
// array; callers must not modify it.
func (s *RowSet) RowIDs(i int) []rdf.ID {
	w := s.Schema.Len()
	return s.ids[i*w : (i+1)*w : (i+1)*w]
}

// Row returns row i.
func (s *RowSet) Row(i int) Row { return Row{Mask: s.masks[i], IDs: s.RowIDs(i)} }

// Window returns rows [lo, hi) of s as a set that shares s's arrays: a
// morsel of s, or the first rows of a capped answer.  It is read-only
// and good only while s is; sets built from it draw on s's free list,
// and releasing it hands its share of s's arrays there, so release s
// or its windows, never both.
func (s *RowSet) Window(lo, hi int) *RowSet {
	w := s.Schema.Len()
	return &RowSet{Schema: s.Schema, masks: s.masks[lo:hi:hi], ids: s.ids[lo*w : hi*w : hi*w],
		some: s.some, miss: s.miss, free: s.free}
}

// alwaysBoundMask returns the slots bound in every row (0 for the empty
// set).
func (s *RowSet) alwaysBoundMask() uint64 { return s.some &^ s.miss }

// uniform reports whether all rows have the same domain (true for the
// empty set): no slot is bound in one row and unbound in another.
func (s *RowSet) uniform() bool { return s.some&s.miss == 0 }

// grow makes room for at least extra more rows, at least doubling the
// arrays; the old pair goes back to the free list.
func (s *RowSet) grow(extra int) {
	n := max(2*cap(s.masks), len(s.masks)+extra, 16)
	masks, ids := s.free.get(n, s.Schema.Len())
	masks, ids = masks[:len(s.masks)], ids[:len(s.ids)]
	copy(masks, s.masks)
	copy(ids, s.ids)
	s.free.put(s.masks, s.ids)
	s.masks, s.ids = masks, ids
}

// next returns the ID vector of the row after the last one for the
// caller to fill; commit (or addNext) then makes it a row.  Slots the
// committed mask leaves clear may hold anything.
func (s *RowSet) next() []rdf.ID {
	if len(s.masks) == cap(s.masks) {
		s.grow(1)
	}
	n, w := len(s.ids), s.Schema.Len()
	return s.ids[n : n+w : n+w]
}

// commit appends the row written into next() under the given mask,
// with no membership check: the caller knows the row is not in the set.
func (s *RowSet) commit(mask uint64) {
	s.ids = s.ids[:len(s.ids)+s.Schema.Len()]
	s.masks = append(s.masks, mask)
	s.some |= mask
	s.miss |= ^mask
}

// push appends a copy of the row (ids, mask) with no membership check.
func (s *RowSet) push(ids []rdf.ID, mask uint64) {
	copy(s.next(), ids)
	s.commit(mask)
}

// appendAll appends every row of t with no membership check.
func (s *RowSet) appendAll(t *RowSet) {
	if t.Len() == 0 {
		return
	}
	if free := cap(s.masks) - len(s.masks); free < t.Len() {
		s.grow(t.Len())
	}
	s.masks = append(s.masks, t.masks...)
	s.ids = append(s.ids, t.ids...)
	s.some |= t.some
	s.miss |= t.miss
}

// index brings the membership table up to date with the rows — those
// appended since the last lookup, or all of them the first time — and
// leaves room for one more.
func (s *RowSet) index() {
	if need := len(s.masks) + 1; 4*need > 3*len(s.table) {
		n := max(16, len(s.table))
		for 4*need > 3*n {
			n *= 2
		}
		s.table = make([]int32, n)
		for i := range s.table {
			s.table[i] = -1
		}
		s.tabled = 0
	}
	m := uint64(len(s.table) - 1)
	for ; s.tabled < len(s.masks); s.tabled++ {
		i := rowHash(s.RowIDs(s.tabled), s.masks[s.tabled]) & m
		for s.table[i] >= 0 {
			i = (i + 1) & m
		}
		s.table[i] = int32(s.tabled)
	}
}

// find returns the table slot of the row (ids, mask) and whether the
// slot holds it (otherwise it is the free slot the row would take).
// The table must be current (index).
func (s *RowSet) find(ids []rdf.ID, mask uint64) (uint64, bool) {
	m := uint64(len(s.table) - 1)
	for i := rowHash(ids, mask) & m; ; i = (i + 1) & m {
		j := s.table[i]
		if j < 0 {
			return i, false
		}
		if rowsEqual(s.RowIDs(int(j)), s.masks[j], ids, mask) {
			return i, true
		}
	}
}

// Add inserts the row (ids, mask), copying it into the backing array;
// it reports whether the row was new.
func (s *RowSet) Add(ids []rdf.ID, mask uint64) bool {
	copy(s.next(), ids)
	return s.addNext(mask)
}

// addNext is Add for a row already written into next().
func (s *RowSet) addNext(mask uint64) bool {
	s.index()
	slot, found := s.find(s.next(), mask)
	if found {
		s.dedup++
		return false
	}
	s.table[slot] = int32(len(s.masks))
	s.commit(mask)
	s.tabled++
	return true
}

// AddRow inserts r; it reports whether the row was new.
func (s *RowSet) AddRow(r Row) bool { return s.Add(r.IDs, r.Mask) }

// DedupHits reports how many rows the membership table rejected as
// duplicates over the set's lifetime.
func (s *RowSet) DedupHits() int64 {
	if s == nil {
		return 0
	}
	return s.dedup
}

// Contains reports whether the row (ids, mask) is in the set.
func (s *RowSet) Contains(ids []rdf.ID, mask uint64) bool {
	// A row of the set binds every always-bound slot and no slot that
	// no row binds.
	if len(s.masks) == 0 || mask&^s.some != 0 || s.alwaysBoundMask()&^mask != 0 {
		return false
	}
	s.index()
	_, found := s.find(ids, mask)
	return found
}

// emit makes the row written into next() part of the set and charges
// its footprint: appended as it is when the caller has proved it
// distinct from every other row, looked up first otherwise.
func (s *RowSet) emit(mask uint64, distinct bool, bud *Budget) error {
	if distinct {
		s.commit(mask)
	} else if !s.addNext(mask) {
		return nil
	}
	return bud.chargeRow(s.Schema.Len())
}

// pushCharged appends a copy of a row known to be new and charges it.
func (s *RowSet) pushCharged(ids []rdf.ID, mask uint64, bud *Budget) error {
	s.push(ids, mask)
	return bud.chargeRow(s.Schema.Len())
}

// joinPair emits µ1 ∪ µ2 when the two rows are compatible and reports
// whether they were.
func (s *RowSet) joinPair(a []rdf.ID, am uint64, b []rdf.ID, bm uint64, distinct bool, bud *Budget) (bool, error) {
	if !rowsCompatible(a, am, b, bm) {
		return false, nil
	}
	return true, s.emit(mergeRows(s.next(), a, am, b, bm), distinct, bud)
}

// Join returns Ω1 ⋈ Ω2 over rows.  When the two sides share slots that
// are bound in every row, the smaller side is hash-bucketed on those
// slots and the larger side probes it; otherwise the one bucket holds
// every row and the join is the nested loop.  Either way the full compatibility check runs on
// each candidate pair, so the result is exact for heterogeneous
// domains.
func (s *RowSet) Join(t *RowSet) *RowSet {
	out, _ := s.JoinB(t, nil)
	return out
}

// JoinB is Join under a governor: every candidate pair charges one
// budget step and every retained row charges the memory estimate, so a
// runaway (e.g. cross-product) join stops at the deadline instead of
// wedging the caller.
func (s *RowSet) JoinB(t *RowSet, bud *Budget) (*RowSet, error) {
	return s.joinParB(t, bud, nil, 0, nil)
}

// joinParB is the join operator, serial with a nil pool and with the
// probe side split across the pool's workers otherwise.  The build
// side's chain index is constructed once by the caller's goroutine;
// each worker streams a contiguous chunk of probe rows against it into
// a private RowSet.  Small joins stay serial.
//
// When both sides have a single domain the output needs no membership
// table: µ1 ∪ µ2 then determines µ1 (its restriction to the one left
// domain) and µ2, so distinct pairs merge to distinct rows, and the
// partitions — disjoint sets of probe rows — are concatenated.
func (s *RowSet) joinParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.Len() == 0 {
		return s, nil
	}
	if t.Len() == 0 {
		return t, nil
	}
	build, probe := s, t
	if build.Len() > probe.Len() {
		build, probe = probe, build
	}
	return build.probeJoin(probe, bud, po, minPart, node)
}

// probeJoin is the join with the build side fixed: s's chain index
// (cached on s, see chainIndex) is probed with every row of probe.
func (s *RowSet) probeJoin(probe *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	distinct := s.uniform() && probe.uniform()
	key := s.alwaysBoundMask() & probe.alwaysBoundMask()
	if probe.Len() < minPart {
		po = nil
	}
	idx := s.chainIndex(key)
	parts, err := parChunks(po, probe.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		out := s.like(hi - lo)
		l := bud.lease()
		defer l.release()
		for j := lo; j < hi; j++ {
			b, bm := probe.RowIDs(j), probe.masks[j]
			if err := l.step(); err != nil {
				return nil, err
			}
			for i := idx.first(rowHash(b, key)); i >= 0; i = idx.after(i) {
				if err := l.step(); err != nil {
					return nil, err
				}
				if _, err := out.joinPair(s.RowIDs(int(i)), s.masks[i], b, bm, distinct, bud); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeParts(parts, distinct, po, bud, node)
}

// chainIdx buckets rows by the hash of their key-slot restriction: a
// power-of-two array of bucket heads indexed by the hash's low bits,
// plus one link per row — two flat arrays and no map.  Entries are row
// index + 1, so the zero value ends a chain and a fresh array is an
// empty index.  Rows with different keys can share a bucket (the array
// is at least twice the row count, so rarely); every user runs the
// full compatibility check on each candidate anyway.
type chainIdx struct {
	head []int32
	next []int32
}

// first returns the first candidate row for key hash h, -1 for none.
func (x *chainIdx) first(h uint64) int32 { return x.head[h&uint64(len(x.head)-1)] - 1 }

// after returns the candidate following row i, -1 at the end.
func (x *chainIdx) after(i int32) int32 { return x.next[i] - 1 }

// chainIndex returns the chain index of s on the given key slots,
// which must be bound in every row.  With no key slot every row lands
// in the one bucket of the empty restriction, and a probe walks them
// all: the nested loop, with no code of its own.  The index is cached on the
// receiver: a repeat call with the same key and an unchanged row count
// returns it for free, and a rebuild reuses the arrays.  Callers must
// treat it as read-only and must not retain it across mutations of s.
func (s *RowSet) chainIndex(key uint64) *chainIdx {
	x := &s.idx
	if x.head != nil && s.idxKey == key && s.idxRows == s.Len() {
		return x
	}
	size := 16
	for size < 2*s.Len() {
		size *= 2
	}
	if cap(x.head) >= size && cap(x.next) >= s.Len() {
		x.head, x.next = x.head[:size], x.next[:s.Len()]
		clear(x.head)
	} else {
		x.head, x.next = make([]int32, size), make([]int32, s.Len())
	}
	m := uint64(size - 1)
	for i := 0; i < s.Len(); i++ {
		h := rowHash(s.RowIDs(i), key) & m
		x.next[i] = x.head[h]
		x.head[h] = int32(i) + 1
	}
	s.idxKey, s.idxRows = key, s.Len()
	return x
}

// Union returns Ω1 ∪ Ω2.
func (s *RowSet) Union(t *RowSet) *RowSet {
	out, _ := s.UnionB(t, nil)
	return out
}

// UnionB is Union under a governor.  Each side is duplicate-free, so a
// duplicate is a row of one side that is also in the other: when no
// mask can occur on both sides — some slot is bound throughout one
// side and nowhere in the other, as in P1 ∪ (P1 AND P2) — the sides
// are concatenated, and otherwise the rows of the larger side are
// looked up in the smaller side's membership table and only the new
// ones appended.
func (s *RowSet) UnionB(t *RowSet, bud *Budget) (*RowSet, error) {
	w := s.Schema.Len()
	out := s.like(s.Len() + t.Len())
	keep, check := s, t
	if keep.Len() > check.Len() {
		keep, check = check, keep
	}
	l := bud.lease()
	defer l.release()
	if err := l.stepN(keep.Len()); err != nil {
		return nil, err
	}
	out.appendAll(keep)
	if err := bud.chargeRows(w, keep.Len()); err != nil {
		return nil, err
	}
	if keep.Len() == 0 || s.alwaysBoundMask()&^t.some != 0 || t.alwaysBoundMask()&^s.some != 0 {
		if err := l.stepN(check.Len()); err != nil {
			return nil, err
		}
		out.appendAll(check)
		return out, bud.chargeRows(w, check.Len())
	}
	for i := 0; i < check.Len(); i++ {
		if err := l.step(); err != nil {
			return nil, err
		}
		ids, mask := check.RowIDs(i), check.masks[i]
		if keep.Contains(ids, mask) {
			out.dedup++
			continue
		}
		if err := out.pushCharged(ids, mask, bud); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Diff returns Ω1 ∖ Ω2 = {µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2}, hash-bucketed
// on the shared always-bound slots when possible.  As with the string
// algebra, the bucketing is sound because a probe key drawn from slots
// bound in *every* right row reaches every potentially compatible
// right row.
func (s *RowSet) Diff(t *RowSet) *RowSet {
	out, _ := s.DiffB(t, nil)
	return out
}

// DiffB is Diff under a governor: each compatibility probe charges a
// step.
func (s *RowSet) DiffB(t *RowSet, bud *Budget) (*RowSet, error) {
	return s.diffParB(t, bud, nil, 0, nil)
}

// diffParB is the difference operator, with the left side partitioned
// across the pool when there is one.  The output is a subset of the
// left side in its order, so rows are appended and partitions
// concatenated; Ω ∖ ∅ is Ω itself, returned as it is.
func (s *RowSet) diffParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.Len() == 0 || t.Len() == 0 {
		return s, nil
	}
	if s.Len() < minPart {
		po = nil
	}
	key := s.alwaysBoundMask() & t.alwaysBoundMask()
	idx := t.chainIndex(key)
	parts, err := parChunks(po, s.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		out := s.like(0)
		l := bud.lease()
		defer l.release()
		for i := lo; i < hi; i++ {
			a, am := s.RowIDs(i), s.masks[i]
			if err := l.step(); err != nil {
				return nil, err
			}
			compatible := false
			for j := idx.first(rowHash(a, key)); j >= 0 && !compatible; j = idx.after(j) {
				if err := l.step(); err != nil {
					return nil, err
				}
				compatible = rowsCompatible(a, am, t.RowIDs(int(j)), t.masks[j])
			}
			if !compatible {
				if err := out.pushCharged(a, am, bud); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeParts(parts, true, po, bud, node)
}

// LeftJoin returns Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2).
func (s *RowSet) LeftJoin(t *RowSet) *RowSet {
	out, _ := s.LeftJoinB(t, nil)
	return out
}

// LeftJoinB is LeftJoin under a governor.
func (s *RowSet) LeftJoinB(t *RowSet, bud *Budget) (*RowSet, error) {
	return s.leftJoinParB(t, bud, nil, 0, nil)
}

// leftJoinParB is Ω1 ⟕ Ω2 in one pass over the left side, partitioned
// across the pool when there is one: each left row probes the right
// side's chain index, is merged with each compatible right row, and is
// emitted as it is when there was none.
//
// The two halves cannot share a row — a merged row µ1 ∪ µ2 extends µ2,
// so it is compatible with µ2, and an unmatched row is compatible with
// no right row — and the unmatched half is a subset of the left side,
// so only merged rows can repeat, and only over mixed domains (see
// joinParB).  Then the merged rows go through the membership table and
// the unmatched ones are appended after them, outside it.
func (s *RowSet) leftJoinParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.Len() == 0 || t.Len() == 0 {
		return s, nil
	}
	distinct := s.uniform() && t.uniform()
	if s.Len() < minPart {
		po = nil
	}
	key := s.alwaysBoundMask() & t.alwaysBoundMask()
	idx := t.chainIndex(key)
	parts, err := parChunks(po, s.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		out := s.like(hi - lo)
		var unmatched []int32
		l := bud.lease()
		defer l.release()
		for i := lo; i < hi; i++ {
			a, am := s.RowIDs(i), s.masks[i]
			if err := l.step(); err != nil {
				return nil, err
			}
			matched := false
			for j := idx.first(rowHash(a, key)); j >= 0; j = idx.after(j) {
				if err := l.step(); err != nil {
					return nil, err
				}
				ok, err := out.joinPair(a, am, t.RowIDs(int(j)), t.masks[j], distinct, bud)
				if err != nil {
					return nil, err
				}
				matched = matched || ok
			}
			switch {
			case matched:
			case distinct:
				if err := out.pushCharged(a, am, bud); err != nil {
					return nil, err
				}
			default:
				unmatched = append(unmatched, int32(i))
			}
		}
		for _, i := range unmatched {
			if err := out.pushCharged(s.RowIDs(int(i)), s.masks[i], bud); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeParts(parts, distinct, po, bud, node)
}

// Project returns {µ|V | µ ∈ Ω} for V given as a slot mask.
func (s *RowSet) Project(mask uint64) *RowSet {
	out, _ := s.ProjectB(mask, nil)
	return out
}

// ProjectB is Project under a governor.  Restriction can make two rows
// equal, so the output goes through the membership table — unless V
// covers every slot some row binds, and the set is returned as it is.
func (s *RowSet) ProjectB(mask uint64, bud *Budget) (*RowSet, error) {
	if s.some&^mask == 0 {
		return s, nil
	}
	out := s.like(0)
	l := bud.lease()
	defer l.release()
	for i := 0; i < s.Len(); i++ {
		if err := l.step(); err != nil {
			return nil, err
		}
		copy(out.next(), s.RowIDs(i))
		if err := out.emit(s.masks[i]&mask, false, bud); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter returns {µ ∈ Ω | µ ⊨ R} for a compiled row condition.
func (s *RowSet) Filter(cond RowCond) *RowSet {
	out, _ := s.FilterB(cond, nil)
	return out
}

// FilterB is Filter under a governor.  A subset of a set: appended.
func (s *RowSet) FilterB(cond RowCond, bud *Budget) (*RowSet, error) {
	out := s.like(0)
	l := bud.lease()
	defer l.release()
	for i := 0; i < s.Len(); i++ {
		if err := l.step(); err != nil {
			return nil, err
		}
		if cond(s.RowIDs(i), s.masks[i]) {
			if err := out.pushCharged(s.RowIDs(i), s.masks[i], bud); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Maximal returns Ω_max over rows: the domain-bucketed NS algorithm of
// MaximalBucketed keyed on the presence bitmask.  Rows are grouped by
// mask; a row can only be properly subsumed by a row whose mask is a
// strict superset, so for each mask pair (m ⊊ m') the m-restrictions
// of the m'-bucket are hashed and each row of the m-bucket probes them
// in O(1) — with word operations end to end.
func (s *RowSet) Maximal() *RowSet {
	out, _ := s.MaximalB(nil)
	return out
}

// MaximalB is Maximal under a governor: hashing a superset bucket and
// probing it both charge steps, so the quadratic-in-buckets worst case
// respects deadlines.
func (s *RowSet) MaximalB(bud *Budget) (*RowSet, error) {
	return s.maximalParB(bud, nil, 0, nil)
}

// maskBucket is the rows of one presence mask, in row order.
type maskBucket struct {
	mask uint64
	rows []int32
}

// maskBuckets groups the rows by mask, buckets in first-seen order.
func (s *RowSet) maskBuckets() []maskBucket {
	var buckets []maskBucket
	at := make(map[uint64]int)
	for i, m := range s.masks {
		k, ok := at[m]
		if !ok {
			k = len(buckets)
			at[m] = k
			buckets = append(buckets, maskBucket{mask: m})
		}
		buckets[k].rows = append(buckets[k].rows, int32(i))
	}
	return buckets
}

// maximalParB is the NS operator, with the buckets sharded across the
// pool when there is one.  Each bucket's subsumption hunt — hash the
// restrictions of every strict-superset bucket, probe the bucket's
// rows — reads shared state only, so the buckets that have one spread
// across workers and a final sweep in row order drops the subsumed rows.  Buckets are
// visited in first-seen order, inner loop included, so the steps
// charged are the same run to run.  The survivors are a subset of the
// set: appended; and a set with one domain has no strict superset
// mask, so it is its own maximum and is returned as it is.
func (s *RowSet) maximalParB(bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.uniform() {
		return s, nil
	}
	if s.Len() < minPart {
		po = nil
	}
	buckets := s.maskBuckets()
	// Only a bucket with a strict-superset bucket has a hunt to run;
	// those are what the workers share.
	var hunts []maskBucket
	for _, b := range buckets {
		for _, b2 := range buckets {
			if b2.mask != b.mask && b.mask&^b2.mask == 0 {
				hunts = append(hunts, b)
				break
			}
		}
	}
	deadParts, err := parChunks(po, len(hunts), 1, node, func(lo, hi int) ([]int32, error) {
		var dead []int32
		l := bud.lease()
		defer l.release()
		for _, b := range hunts[lo:hi] {
			superKeys := s.like(len(b.rows))
			for _, b2 := range buckets {
				if b2.mask == b.mask || b.mask&^b2.mask != 0 {
					continue
				}
				// m ⊊ m2: hash the m-restrictions of the superset bucket.
				for _, j := range b2.rows {
					if err := l.step(); err != nil {
						return nil, err
					}
					superKeys.Add(s.RowIDs(int(j)), b.mask)
				}
			}
			for _, i := range b.rows {
				if err := l.step(); err != nil {
					return nil, err
				}
				if superKeys.Contains(s.RowIDs(int(i)), b.mask) {
					dead = append(dead, i)
				}
			}
			superKeys.Release()
		}
		return dead, nil
	})
	if err != nil {
		return nil, err
	}
	if po != nil {
		node.AddPartitions(int64(len(deadParts)))
	}
	// Sweep: merge the shards' dead lists and emit the survivors in row
	// order.
	dead := make([]bool, s.Len())
	gone := 0
	for _, part := range deadParts {
		for _, i := range part {
			dead[i] = true
		}
		gone += len(part)
	}
	out := s.like(s.Len() - gone)
	l := bud.lease()
	defer l.release()
	for i := 0; i < s.Len(); i++ {
		if err := l.step(); err != nil {
			return nil, err
		}
		if !dead[i] {
			if err := out.pushCharged(s.RowIDs(i), s.masks[i], bud); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MaximalNaive computes Ω_max by pairwise subsumption checks, O(n²);
// the reference implementation for differential tests.
func (s *RowSet) MaximalNaive() *RowSet {
	out := NewRowSet(s.Schema)
	for i := 0; i < s.Len(); i++ {
		a, am := s.RowIDs(i), s.masks[i]
		maximal := true
		for j := 0; j < s.Len(); j++ {
			if b, bm := s.RowIDs(j), s.masks[j]; am != bm && rowSubsumedBy(a, am, b, bm) {
				maximal = false
				break
			}
		}
		if maximal {
			out.push(a, am)
		}
	}
	return out
}

// MappingSet decodes the rows back to a string MappingSet through the
// codec's dictionary — the boundary conversion from the ID-native core
// to the public facade.  Schema slots are assigned in sorted variable
// order, so walking a row's mask yields the variables exactly as
// Mapping.key() would after sorting; the canonical key is built in the
// same pass, one allocation per row.
func (s *RowSet) MappingSet(d *rdf.Dict) *MappingSet {
	c := Codec{Schema: s.Schema, Dict: d}
	out := NewMappingSet()
	var buf []byte
	for i := 0; i < s.Len(); i++ {
		ids, mask := s.RowIDs(i), s.masks[i]
		buf = buf[:0]
		for m := mask; m != 0; m &= m - 1 {
			j := trailingZeros(m)
			buf = strconv.AppendQuote(buf, string(s.Schema.vars[j]))
			buf = append(buf, '=')
			buf = strconv.AppendQuote(buf, string(d.IRI(ids[j])))
			buf = append(buf, ';')
		}
		out.addKeyed(c.DecodeMasked(ids, mask), string(buf))
	}
	return out
}

// EncodeMappingSet converts a string MappingSet to rows, interning the
// variable images into the codec dictionary.  ok = false when some
// mapping binds a variable outside the schema.
func EncodeMappingSet(ms *MappingSet, c Codec) (*RowSet, bool) {
	out := NewRowSet(c.Schema)
	for _, mu := range ms.Mappings() {
		r, ok := c.Encode(mu)
		if !ok {
			return nil, false
		}
		out.AddRow(r)
	}
	return out, true
}
