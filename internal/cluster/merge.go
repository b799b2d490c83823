package cluster

import (
	"container/heap"

	"repro/internal/rdf"
)

// MergeSorted streams the k-way merge of already-sorted triple slices
// (ascending Triple.Less order, as the scan protocol delivers them)
// into emit, in global sorted order with duplicates collapsed, until
// emit returns false.  This is the cluster-side counterpart of the
// storage layer's three-way base∪adds∖dels merge: per-shard streams
// stay sorted end to end, so the gathered subgraph loads without a
// global re-sort.  A hash-by-subject partition makes cross-shard
// duplicates impossible, but the merge dedups anyway — readmitted
// shards replaying an insert, or overlapping pattern scans, must not
// double-count.
func MergeSorted(streams [][]rdf.Triple, emit func(rdf.Triple) bool) {
	h := make(mergeHeap, 0, len(streams))
	for _, s := range streams {
		if len(s) > 0 {
			h = append(h, mergeCursor{rest: s})
		}
	}
	heap.Init(&h)
	var last rdf.Triple
	first := true
	for len(h) > 0 {
		cur := h[0]
		t := cur.rest[0]
		if len(cur.rest) > 1 {
			h[0].rest = cur.rest[1:]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if first || t != last {
			first = false
			last = t
			if !emit(t) {
				return
			}
		}
	}
}

type mergeCursor struct {
	rest []rdf.Triple
}

type mergeHeap []mergeCursor

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].rest[0].Less(h[j].rest[0]) }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeCursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// loadFrames merges the shards' frames into one local store.
func loadFrames(frames []*scanFrame) rdf.Store {
	g := rdf.NewGraph()
	streams := make([][]rdf.Triple, 0, len(frames))
	for _, f := range frames {
		if f == nil {
			continue
		}
		ts := make([]rdf.Triple, len(f.triples))
		for i, t := range f.triples {
			ts[i] = rdf.Triple{S: f.iris[t.S], P: f.iris[t.P], O: f.iris[t.O]}
		}
		streams = append(streams, ts)
	}
	MergeSorted(streams, func(t rdf.Triple) bool {
		g.AddTriple(t)
		return true
	})
	g.Compact()
	return g
}
