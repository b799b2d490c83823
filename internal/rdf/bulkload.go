package rdf

import (
	"fmt"
	"slices"
	"sort"
)

// NewGraphFromSnapshot adopts a dictionary table and an SPO-sorted,
// duplicate-free triple array as a graph's base — the bulk-load path
// of the durable backend's snapshot loader and of the cluster
// coordinator's gather.  iris is the dictionary in ID order (index i
// becomes ID i) and spo becomes the SPO base array; the graph adopts
// both slices, so the caller must not use them afterwards.  The other
// two permutations are derived from spo without a comparison sort (see
// stableByKey).  The inputs are validated
// rather than trusted: a snapshot file that decodes but violates the
// index invariants (duplicate dictionary entries, IDs out of range,
// unsorted or duplicate triples) must fail recovery loudly, not
// corrupt binary search.
func NewGraphFromSnapshot(iris []IRI, spo []IDTriple) (*Graph, error) {
	g := &Graph{dict: &Dict{byIRI: make(map[IRI]ID, len(iris)), byID: iris}, ov: newOverlay()}
	for i, iri := range iris {
		if id, dup := g.dict.byIRI[iri]; dup {
			return nil, fmt.Errorf("rdf: snapshot dictionary has duplicate entry %q (index %d collides with ID %d)", iri, i, id)
		}
		g.dict.byIRI[iri] = ID(i)
	}
	n := ID(len(iris))
	for i, t := range spo {
		if t.S >= n || t.P >= n || t.O >= n {
			return nil, fmt.Errorf("rdf: snapshot triple %d (%d %d %d) references IDs beyond the dictionary (size %d)", i, t.S, t.P, t.O, n)
		}
		if i > 0 && !permSPO.less(spo[i-1], t) {
			return nil, fmt.Errorf("rdf: snapshot triples not strictly SPO-sorted at index %d", i)
		}
	}
	g.base = sortedPerms(spo, len(iris))
	g.n = len(spo)
	return g, nil
}

// dense reports whether n triples over the ID space [0, ids) sort
// faster by counting passes, each O(n + ids), than by comparisons: a
// batch of a few triples against a large dictionary sorts by compare.
func dense(n, ids int) bool { return ids <= 16*n }

// sortSPO orders ts by (S, P, O), keeping repeats: CountingSortSPO when
// the ID space is dense for the batch, a comparison sort otherwise.
func sortSPO(ts []IDTriple, ids int) []IDTriple {
	if dense(len(ts), ids) {
		return CountingSortSPO(ts, ids)
	}
	slices.SortFunc(ts, CompareSPO)
	return ts
}

// sortedPerms returns the three permutation orders of the SPO-sorted
// run spo over the ID space [0, ids), adopting spo as the SPO one.  A
// stable reordering by one component keeps the order the input had
// among triples that agree on it: (S,P,O) order stably keyed by O is
// (O,S,P) order, and that stably keyed by P is (P,O,S) order — two
// counting passes, no comparisons, when the ID space is dense.
func sortedPerms(spo []IDTriple, ids int) (runs [3][]IDTriple) {
	runs[permSPO] = spo
	if !dense(len(spo), ids) {
		for _, k := range []perm{permPOS, permOSP} {
			runs[k] = slices.Clone(spo)
			k.sortTriples(runs[k])
		}
		return runs
	}
	next := make([]int, ids+1)
	runs[permOSP] = stableByKey(make([]IDTriple, len(spo)), spo, next, func(t IDTriple) ID { return t.O })
	runs[permPOS] = stableByKey(make([]IDTriple, len(spo)), runs[permOSP], next, func(t IDTriple) ID { return t.P })
	return runs
}

// stableByKey writes src into dst (len(src) long) ordered by
// ascending key, equal keys in their src order: one counting sort over
// the dense ID space [0, len(next)-1), O(len(src) + len(next)) with no
// comparisons.  next is its counter array; its contents are
// overwritten.
func stableByKey(dst, src []IDTriple, next []int, key func(IDTriple) ID) []IDTriple {
	clear(next) // next[k+1] counts key k, then next[k] is where key k goes
	for _, t := range src {
		next[key(t)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for _, t := range src {
		k := key(t)
		dst[next[k]] = t
		next[k]++
	}
	return dst
}

// CountingSortSPO orders ts by (S, P, O) over the dense ID space
// [0, ids) with three stable counting passes — by O, then P, then S —
// and no comparisons: O(len(ts) + ids).  Repeats are kept.  ts is
// overwritten (it is the middle pass's output); the result is a new
// slice of the same length.
func CountingSortSPO(ts []IDTriple, ids int) []IDTriple {
	next := make([]int, ids+1)
	tmp := make([]IDTriple, len(ts))
	stableByKey(tmp, ts, next, func(t IDTriple) ID { return t.O })
	stableByKey(ts, tmp, next, func(t IDTriple) ID { return t.P })
	return stableByKey(tmp, ts, next, func(t IDTriple) ID { return t.S })
}

// AddTriples inserts a batch of triples, reporting how many were new;
// see AddTriplesLogged.  The memstore never fails.
func (g *Graph) AddTriples(ts []Triple) (int, error) { return g.AddTriplesLogged(ts, nil) }

// AddTriplesLogged is the memstore's bulk mutation, the one path every
// load takes.  It interns the batch's terms, sorts its ID triples by
// counting passes over the dense IDs, and drops in-batch repeats and
// triples already present in one merge walk against the base (the
// overlay is probed through its maps), cancelling pending deletes.
// When the new triples and the overlay together reach the compaction
// threshold, the run — sorted once per permutation — merges into the
// base with the overlay in one pass; otherwise it joins the overlay,
// which then compacts on the same amortised schedule as single Adds.
// The epoch moves once if anything changed.
//
// log, when non-nil, is the write-ahead hook: it receives the triples
// the batch adds (pending deletes it cancels included) before any of
// them is published, and when it fails nothing is — no triple, no
// epoch bump, no new dictionary term — and its error is returned.
func (g *Graph) AddTriplesLogged(ts []Triple, log func(fresh []Triple) error) (int, error) {
	g.assertWritable()
	if len(ts) == 0 {
		return 0, nil
	}
	mark := g.dict.Len()
	run := make([]IDTriple, len(ts))
	for i, t := range ts {
		run[i] = IDTriple{S: g.dict.Intern(t.S), P: g.dict.Intern(t.P), O: g.dict.Intern(t.O)}
	}
	run = slices.Compact(sortSPO(run, g.dict.Len()))
	fresh, cancels := g.absent(run)
	added := len(fresh) + len(cancels)
	if added == 0 {
		return 0, nil // every triple present: no term was new either
	}
	if log != nil {
		out := make([]Triple, 0, added)
		for _, ids := range [][]IDTriple{fresh, cancels} {
			for _, t := range ids {
				out = append(out, Triple{S: g.dict.IRI(t.S), P: g.dict.IRI(t.P), O: g.dict.IRI(t.O)})
			}
		}
		if err := log(out); err != nil {
			g.dict.truncate(mark)
			return 0, err
		}
	}
	for _, t := range cancels {
		delete(g.ov.dels, t)
		g.ov.markDirty()
	}
	if len(fresh)+g.ov.size() >= g.compactThreshold() {
		g.compact(fresh)
	} else {
		for _, t := range fresh {
			g.ov.adds[t] = struct{}{}
		}
		g.ov.markDirty()
	}
	g.n += added
	g.epoch.Add(1)
	return added, nil
}

// absent splits run (SPO-sorted, distinct) into the triples the graph
// lacks — kept in place, in order — and the base triples with a
// pending delete, whose re-add cancels it.  The base is walked once:
// each step gallops from where the last one stopped, so k triples
// against n cost O(k log(n/k)) comparisons, never a full search per
// triple nor a full scan per batch.
func (g *Graph) absent(run []IDTriple) (fresh, cancels []IDTriple) {
	base := g.base[permSPO]
	fresh = run[:0]
	i := 0
	for _, t := range run {
		if i = gallop(permSPO, base, i, t); i < len(base) && base[i] == t {
			if _, pending := g.ov.dels[t]; pending {
				cancels = append(cancels, t)
			}
			continue
		}
		if _, dup := g.ov.adds[t]; !dup {
			fresh = append(fresh, t)
		}
	}
	return fresh, cancels
}

// gallop returns the first position at or after i of arr (sorted in
// k's order) whose triple is not below t, given that none before i is:
// an exponential probe from i, then a binary search of the last step,
// O(log d) for a distance d.
func gallop(k perm, arr []IDTriple, i int, t IDTriple) int {
	lo, step := i, 1
	for lo+step <= len(arr) && k.less(arr[lo+step-1], t) {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, len(arr))
	return lo + sort.Search(hi-lo, func(x int) bool { return !k.less(arr[lo+x], t) })
}

// mergeDisjoint merges two runs sorted in k's order that share no
// triple.
func mergeDisjoint(k perm, a, b []IDTriple) []IDTriple {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]IDTriple, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if k.less(a[0], b[0]) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
