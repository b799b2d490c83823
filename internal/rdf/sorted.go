package rdf

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the storage layer's index machinery: three flat
// []IDTriple arrays sorted in the SPO/POS/OSP permutation orders, with
// binary-search prefix ranges for every bound/wildcard combination, and
// a small mutable delta overlay (insert/remove sets) so single-triple
// mutation stays O(delta) instead of O(n) array surgery.  Graph (in
// graph.go) owns one base array per permutation plus one overlay and
// compacts the overlay into the base when it crosses a threshold.  See
// DESIGN.md §10 for the layout and the snapshot-guard contract.

// perm identifies one of the three permutation indexes.  The constant
// order matters: perm doubles as the index into Graph.base and
// overlay.addV/delV.
type perm int

const (
	permSPO perm = iota // key order (S, P, O)
	permPOS             // key order (P, O, S)
	permOSP             // key order (O, S, P)
)

// key returns t's components in the permutation's comparison order,
// the leading pair packed into one uint64 (IDs are 32-bit) so range
// searches compare machine words instead of tuples.
func (k perm) key(t IDTriple) (ab uint64, c ID) {
	switch k {
	case permSPO:
		return uint64(t.S)<<32 | uint64(t.P), t.O
	case permPOS:
		return uint64(t.P)<<32 | uint64(t.O), t.S
	default:
		return uint64(t.O)<<32 | uint64(t.S), t.P
	}
}

// less is the strict total order of the permutation.
func (k perm) less(x, y IDTriple) bool {
	xab, xc := k.key(x)
	yab, yc := k.key(y)
	return xab < yab || (xab == yab && xc < yc)
}

// compare is less as a three-way comparison.
func (k perm) compare(x, y IDTriple) int {
	xab, xc := k.key(x)
	yab, yc := k.key(y)
	if c := cmp.Compare(xab, yab); c != 0 {
		return c
	}
	return cmp.Compare(xc, yc)
}

// CompareSPO is the (S, P, O) order on ID triples — the order of the
// SPO base array, of ForEach and of a snapshot's triple run — as a
// three-way comparison for callers that sort or merge such runs.
func CompareSPO(x, y IDTriple) int { return permSPO.compare(x, y) }

// sortTriples sorts ts in k's order in place.
func (k perm) sortTriples(ts []IDTriple) {
	slices.SortFunc(ts, k.compare)
}

// rangeOf returns the half-open [lo, hi) range of arr (sorted in k's
// order) whose first depth key components equal the given prefix:
// depth 0 is the whole array, depth 1 fixes the leading component a,
// depth 2 fixes the leading pair (a, b).  Two binary searches, O(log n).
func rangeOf(arr []IDTriple, k perm, depth int, a, b ID) (int, int) {
	switch depth {
	case 0:
		return 0, len(arr)
	case 1:
		want := uint64(a)
		lo := sort.Search(len(arr), func(i int) bool {
			ab, _ := k.key(arr[i])
			return ab>>32 >= want
		})
		hi := lo + sort.Search(len(arr)-lo, func(i int) bool {
			ab, _ := k.key(arr[lo+i])
			return ab>>32 > want
		})
		return lo, hi
	default:
		want := uint64(a)<<32 | uint64(b)
		lo := sort.Search(len(arr), func(i int) bool {
			ab, _ := k.key(arr[i])
			return ab >= want
		})
		hi := lo + sort.Search(len(arr)-lo, func(i int) bool {
			ab, _ := k.key(arr[lo+i])
			return ab > want
		})
		return lo, hi
	}
}

// findTriple reports whether t occurs in arr (sorted in k's order).
func findTriple(arr []IDTriple, k perm, t IDTriple) bool {
	wab, wc := k.key(t)
	i := sort.Search(len(arr), func(i int) bool {
		ab, c := k.key(arr[i])
		return ab > wab || (ab == wab && c >= wc)
	})
	return i < len(arr) && arr[i] == t
}

// mergeEmit streams the union of base and add minus del in k's order,
// calling fn until it returns false; it reports whether the walk ran to
// completion.  The caller guarantees the overlay invariants (add is
// disjoint from base, del ⊆ base), so a base element never ties with an
// add element and every del element is hit while walking base.
func mergeEmit(k perm, base, add, del []IDTriple, fn func(IDTriple) bool) bool {
	bi, ai, di := 0, 0, 0
	for bi < len(base) || ai < len(add) {
		var t IDTriple
		if ai >= len(add) || (bi < len(base) && k.less(base[bi], add[ai])) {
			t = base[bi]
			bi++
			for di < len(del) && k.less(del[di], t) {
				di++
			}
			if di < len(del) && del[di] == t {
				di++
				continue
			}
		} else {
			t = add[ai]
			ai++
		}
		if !fn(t) {
			return false
		}
	}
	return true
}

// mergeCompact materializes mergeEmit into a fresh exact-size array —
// one compaction pass for one permutation.
func mergeCompact(k perm, base, add, del []IDTriple) []IDTriple {
	out := make([]IDTriple, 0, len(base)+len(add)-len(del))
	mergeEmit(k, base, add, del, func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// overlay is the graph's mutable delta on top of the sorted base
// arrays.  adds holds triples not in the base, dels holds base triples
// pending removal; Add/Remove maintain adds ∩ base = ∅ and dels ⊆
// base, so |G| = len(base) + len(adds) - len(dels) and a triple is
// present iff it is in adds, or in the base and not in dels.
//
// The maps are the source of truth and give O(1) mutation.  The read
// paths need the delta *sorted* per permutation to merge against the
// base ranges, so addV/delV are rebuilt lazily: mutations flip the
// dirty flag (they run with no concurrent readers, per the Graph
// contract), and the first subsequent reader rebuilds the views under
// mu with double-checked locking.  Concurrent readers may race into
// ensure together — the loser waits on mu, re-checks dirty, and leaves
// — and the atomic dirty flag publishes the rebuilt slices to the
// fast-path readers that never touch the mutex.
type overlay struct {
	adds map[IDTriple]struct{}
	dels map[IDTriple]struct{}

	dirty atomic.Bool
	mu    sync.Mutex
	addV  [3][]IDTriple
	delV  [3][]IDTriple
}

func newOverlay() overlay {
	return overlay{
		adds: make(map[IDTriple]struct{}),
		dels: make(map[IDTriple]struct{}),
	}
}

// size is the overlay's total delta cardinality (the compaction
// trigger input).
func (ov *overlay) size() int { return len(ov.adds) + len(ov.dels) }

// isEmpty reports whether the overlay holds no delta, letting scans
// skip the merge and walk the base array directly.
func (ov *overlay) isEmpty() bool { return len(ov.adds) == 0 && len(ov.dels) == 0 }

// markDirty records that the maps changed and the sorted views are
// stale.  Only mutation paths call it, so no reader is concurrent.
func (ov *overlay) markDirty() { ov.dirty.Store(true) }

// views returns the sorted per-permutation views of the overlay,
// rebuilding them first when stale.
func (ov *overlay) views() (addV, delV *[3][]IDTriple) {
	if ov.dirty.Load() {
		ov.mu.Lock()
		if ov.dirty.Load() {
			for k := permSPO; k <= permOSP; k++ {
				ov.addV[k] = rebuildView(ov.addV[k][:0], ov.adds, k)
				ov.delV[k] = rebuildView(ov.delV[k][:0], ov.dels, k)
			}
			ov.dirty.Store(false)
		}
		ov.mu.Unlock()
	}
	return &ov.addV, &ov.delV
}

// reset empties the overlay after a compaction, keeping the map and
// slice capacity for the next delta cycle.
func (ov *overlay) reset() {
	clear(ov.adds)
	clear(ov.dels)
	for k := permSPO; k <= permOSP; k++ {
		ov.addV[k] = ov.addV[k][:0]
		ov.delV[k] = ov.delV[k][:0]
	}
	ov.dirty.Store(false)
}

// rebuildView refills dst with the set's triples sorted in k's order.
func rebuildView(dst []IDTriple, set map[IDTriple]struct{}, k perm) []IDTriple {
	for t := range set {
		dst = append(dst, t)
	}
	k.sortTriples(dst)
	return dst
}
