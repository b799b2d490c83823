package rdf

import "fmt"

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
	// A stable reordering by one component keeps the order the input
	// had among triples that agree on it: (S,P,O) order stably keyed by
	// O is (O,S,P) order, and that stably keyed by P is (P,O,S) order.
	next := make([]int, len(iris)+1)
	g.base[permSPO] = spo
	g.base[permOSP] = stableByKey(make([]IDTriple, len(spo)), spo, next, func(t IDTriple) ID { return t.O })
	g.base[permPOS] = stableByKey(make([]IDTriple, len(spo)), g.base[permOSP], next, func(t IDTriple) ID { return t.P })
	g.n = len(spo)
	return g, nil
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
