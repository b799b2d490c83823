package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.IRI(s), P: rdf.IRI(p), O: rdf.IRI(o)}
}

func collect(streams [][]rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	MergeSorted(streams, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// TestMergeSortedBasic merges disjoint sorted streams and checks the
// output is their sorted union.
func TestMergeSortedBasic(t *testing.T) {
	a := []rdf.Triple{tr("a", "p", "1"), tr("c", "p", "1")}
	b := []rdf.Triple{tr("b", "p", "1"), tr("d", "p", "1")}
	got := collect([][]rdf.Triple{a, b})
	want := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "1"), tr("c", "p", "1"), tr("d", "p", "1")}
	if len(got) != len(want) {
		t.Fatalf("merged %d triples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMergeSortedDedup checks duplicates across (and within) streams
// collapse to one emission.
func TestMergeSortedDedup(t *testing.T) {
	a := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "1")}
	b := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "1")}
	got := collect([][]rdf.Triple{a, b, a})
	if len(got) != 2 {
		t.Fatalf("merged %d triples, want 2 after dedup: %v", len(got), got)
	}
}

// TestMergeSortedEarlyStop checks a false return from emit stops the
// merge immediately.
func TestMergeSortedEarlyStop(t *testing.T) {
	a := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "1"), tr("c", "p", "1")}
	n := 0
	MergeSorted([][]rdf.Triple{a}, func(rdf.Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("emit called %d times after early stop, want 2", n)
	}
}

// TestMergeSortedRandomized cross-checks the k-way merge against
// sort+dedup of the concatenation, over random partitions.
func TestMergeSortedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	letters := []string{"a", "b", "c", "d", "e", "f"}
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(5)
		streams := make([][]rdf.Triple, k)
		var all []rdf.Triple
		for i := range streams {
			n := rng.Intn(10)
			for j := 0; j < n; j++ {
				t3 := tr(letters[rng.Intn(len(letters))], letters[rng.Intn(len(letters))], letters[rng.Intn(len(letters))])
				streams[i] = append(streams[i], t3)
				all = append(all, t3)
			}
			sort.Slice(streams[i], func(a, b int) bool { return streams[i][a].Less(streams[i][b]) })
		}
		sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
		var want []rdf.Triple
		for i, t3 := range all {
			if i == 0 || t3 != all[i-1] {
				want = append(want, t3)
			}
		}
		got := collect(streams)
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %d, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d position %d: got %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestMergeKSources checks the generic merge hands out every element
// of every stream exactly once, in order, tagged with its stream, and
// stops when told to.
func TestMergeKSources(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	less := func(a, b int) bool { return a < b }
	for round := 0; round < 100; round++ {
		streams := make([][]int, rng.Intn(6))
		total := 0
		for i := range streams {
			for j, n := 0, rng.Intn(8); j < n; j++ {
				streams[i] = append(streams[i], rng.Intn(10))
			}
			sort.Ints(streams[i])
			total += len(streams[i])
		}
		next := make([]int, len(streams)) // how far each stream has been handed out
		last, seen := -1, 0
		mergeK(streams, less, func(v, src int) bool {
			if v < last {
				t.Fatalf("round %d: %d after %d", round, v, last)
			}
			if streams[src][next[src]] != v {
				t.Fatalf("round %d: stream %d handed out %d, its next element is %d", round, src, v, streams[src][next[src]])
			}
			next[src]++
			last = v
			seen++
			return true
		})
		if seen != total {
			t.Fatalf("round %d: %d elements emitted, streams hold %d", round, seen, total)
		}
		if total > 1 {
			calls := 0
			mergeK(streams, less, func(int, int) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("round %d: emit called %d times after it returned false", round, calls)
			}
		}
	}
}

// TestMergeFramesEqualsFrameOfUnion is the coordinator's load path as
// a property: partition a random graph into overlapping parts, frame
// each part for the same random patterns, merge the frames — the
// result is, dictionary and run, the frame of the whole graph.
func TestMergeFramesEqualsFrameOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		whole := randomGraph(rng, rng.Intn(80))
		parts := make([]*rdf.Graph, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = rdf.NewGraph()
		}
		whole.ForEach(func(t3 rdf.Triple) bool {
			parts[rng.Intn(len(parts))].AddTriple(t3)
			if rng.Intn(4) == 0 { // and a copy elsewhere: a replayed insert
				parts[rng.Intn(len(parts))].AddTriple(t3)
			}
			return true
		})
		tps := make([]sparql.TriplePattern, 1+rng.Intn(4))
		for i := range tps {
			tps[i] = randomPattern(rng)
		}
		// mergeFrames rewrites its input, so each use decodes afresh.
		partFrames := func() []*scanFrame {
			frames := make([]*scanFrame, len(parts))
			for i, part := range parts {
				f, err := decodeScanFrame(frameFor(part, tps...))
				if err != nil {
					t.Fatal(err)
				}
				frames[i] = &f
			}
			return frames
		}
		got := mergeFrames(partFrames())
		want, err := decodeScanFrame(frameFor(whole, tps...))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.iris, want.iris) || !slices.Equal(got.triples, want.triples) {
			t.Fatalf("round %d, %d parts, %v:\n got %v %v\nwant %v %v", round, len(parts), tps, got.iris, got.triples, want.iris, want.triples)
		}
		// And it loads: the store answers the patterns as the whole graph does.
		g := loadFrames(partFrames())
		if want := matchUnion(whole, tps); g.Len() != len(want) || !slices.Equal(g.Triples(), want) {
			t.Fatalf("round %d: loaded store holds %v, want %v", round, g.Triples(), want)
		}
	}
}
