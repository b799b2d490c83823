package cluster

import (
	"fmt"

	"repro/internal/rdf"
)

// mergeK is the package's one k-way merge: it streams the elements of
// the already-sorted streams (ascending under less) into emit in
// global order, each with the index of the stream it came from, until
// emit returns false.  Equal elements all arrive, adjacent, in no
// particular stream order; collapsing them is the caller's business,
// because the callers differ in what a duplicate means — the
// dictionary merge must see every copy to fill every stream's remap.
//
// The heap holds one cursor per non-empty stream and is sifted by
// hand: container/heap would box a cursor per operation.
func mergeK[T any](streams [][]T, less func(a, b T) bool, emit func(v T, src int) bool) {
	type cursor struct{ src, pos int }
	h := make([]cursor, 0, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			h = append(h, cursor{src: i})
		}
	}
	head := func(c cursor) T { return streams[c.src][c.pos] }
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(h) {
				return
			}
			if r := m + 1; r < len(h) && less(head(h[r]), head(h[m])) {
				m = r
			}
			if !less(head(h[m]), head(h[i])) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		c := h[0]
		if !emit(head(c), c.src) {
			return
		}
		if c.pos+1 < len(streams[c.src]) {
			h[0].pos++
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}

// MergeSorted streams the k-way merge of already-sorted triple slices
// (ascending Triple.Less order, as ParseScanBody delivers them) into
// emit, in global sorted order with duplicates collapsed, until emit
// returns false.  A hash-by-subject partition makes cross-shard
// duplicates impossible, but the merge dedups anyway — readmitted
// shards replaying an insert must not double-count.
func MergeSorted(streams [][]rdf.Triple, emit func(rdf.Triple) bool) {
	var last rdf.Triple
	first := true
	mergeK(streams, rdf.Triple.Less, func(t rdf.Triple, _ int) bool {
		if !first && t == last {
			return true
		}
		first, last = false, t
		return emit(t)
	})
}

// mergeFrames merges the shards' frames into one: the sorted union of
// their dictionaries and the sorted union of their runs over it.  It
// never touches a triple's strings.  The dictionaries k-way-merge into
// the global one, which gives each frame a remap from its indices to
// global ones; a remap is strictly increasing, so rewriting a run
// through it leaves the run sorted, and the rewritten runs k-way-merge
// as integers.  The frames' runs are rewritten in place.
func mergeFrames(frames []*scanFrame) scanFrame {
	if len(frames) == 1 {
		return *frames[0]
	}
	dicts := make([][]rdf.IRI, len(frames))
	runs := make([][]rdf.IDTriple, len(frames))
	remap := make([][]rdf.ID, len(frames))
	var most, total int
	for i, f := range frames {
		dicts[i], runs[i] = f.iris, f.triples
		remap[i] = make([]rdf.ID, 0, len(f.iris))
		most = max(most, len(f.iris))
		total += len(f.triples)
	}
	iris := make([]rdf.IRI, 0, most)
	mergeK(dicts, func(a, b rdf.IRI) bool { return a < b }, func(iri rdf.IRI, src int) bool {
		if n := len(iris); n == 0 || iris[n-1] != iri {
			iris = append(iris, iri)
		}
		remap[src] = append(remap[src], rdf.ID(len(iris)-1))
		return true
	})
	for i, run := range runs {
		to := remap[i]
		for j, t := range run {
			run[j] = rdf.IDTriple{S: to[t.S], P: to[t.P], O: to[t.O]}
		}
	}
	spo := make([]rdf.IDTriple, 0, total)
	mergeK(runs, func(a, b rdf.IDTriple) bool { return rdf.CompareSPO(a, b) < 0 }, func(t rdf.IDTriple, _ int) bool {
		if n := len(spo); n == 0 || spo[n-1] != t {
			spo = append(spo, t)
		}
		return true
	})
	return scanFrame{iris: iris, triples: spo}
}

// loadFrames builds the gathered store from the frames of the shards
// that answered (nil entries are shards that did not): the merged
// dictionary and run are exactly what rdf.NewGraphFromSnapshot adopts
// as a dictionary and an SPO base array, so no triple is parsed,
// hashed or added one by one.
func loadFrames(frames []*scanFrame) rdf.Store {
	answered := make([]*scanFrame, 0, len(frames))
	for _, f := range frames {
		if f != nil {
			answered = append(answered, f)
		}
	}
	if len(answered) == 0 {
		return rdf.NewGraph()
	}
	merged := mergeFrames(answered)
	g, err := rdf.NewGraphFromSnapshot(merged.iris, merged.triples)
	if err != nil {
		// Every frame was validated when it was decoded and the merge
		// preserves what was validated; only a bug here can break it.
		panic(fmt.Sprintf("cluster: merged scan frames violate the index invariants: %v", err))
	}
	return g
}
