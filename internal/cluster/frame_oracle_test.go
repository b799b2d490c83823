package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// sortCollectMatches and sortBuildFrame are the comparison-sort frame
// builder the counting one replaced, kept as its oracle: the distinct
// store IDs sorted, each triple component found by binary search, the
// triples sorted with CompareSPO.
func sortCollectMatches(src StoreSource, patterns []scanPattern) (ids []rdf.ID, iris []rdf.IRI, ts []rdf.IDTriple) {
	g, release := src()
	defer release()
	dict := g.Dict()
	for _, pat := range patterns {
		var id [3]*rdf.ID
		ok := true
		for i, iri := range []*rdf.IRI{pat.s, pat.p, pat.o} {
			if iri != nil {
				v, found := dict.Lookup(*iri)
				id[i], ok = &v, ok && found
			}
		}
		if ok {
			g.MatchIDs(id[0], id[1], id[2], func(t rdf.IDTriple) bool {
				ts = append(ts, t)
				return true
			})
		}
	}
	for _, t := range ts {
		ids = append(ids, t.S, t.P, t.O)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	iris = make([]rdf.IRI, len(ids))
	for i, id := range ids {
		iris[i] = dict.IRI(id)
	}
	return ids, iris, ts
}

func sortBuildFrame(ids []rdf.ID, iris []rdf.IRI, ts []rdf.IDTriple) scanFrame {
	order := make([]int, len(iris))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(string(iris[a]), string(iris[b])) })
	rank := make([]rdf.ID, len(iris))
	sorted := make([]rdf.IRI, len(iris))
	for r, i := range order {
		rank[i] = rdf.ID(r)
		sorted[r] = iris[i]
	}
	rankOf := func(id rdf.ID) rdf.ID {
		i, _ := slices.BinarySearch(ids, id)
		return rank[i]
	}
	for i, t := range ts {
		ts[i] = rdf.IDTriple{S: rankOf(t.S), P: rankOf(t.P), O: rankOf(t.O)}
	}
	slices.SortFunc(ts, rdf.CompareSPO)
	return scanFrame{iris: sorted, triples: slices.Compact(ts)}
}

// TestFrameBuilderMatchesSortOracle: over random shard stores —
// compacted bases, overlay inserts and deletes interning IDs after the
// base was built, and growth between scans so the pooled scratch must
// be resized and must come back clean — and random pattern sets with
// overlaps, repeats, constants absent from the dictionary and empty
// matches, the counting frame builder's frame is byte for byte the
// comparison-sort oracle's.
func TestFrameBuilderMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := func() rdf.IRI {
		if rng.Intn(3) == 0 {
			return randomIRI(rng)
		}
		return rdf.IRI(fmt.Sprintf("n%d", rng.Intn(60)))
	}
	graphs := make([]*rdf.Graph, 4)
	for i := range graphs {
		graphs[i] = rdf.NewGraph()
		graphs[i].SetCompactionThreshold(1 + rng.Intn(40))
	}
	frames := 0
	for round := 0; round < 300; round++ {
		g := graphs[rng.Intn(len(graphs))]
		// Mutate: mostly inserts (some interning new IRIs), some
		// deletes, now and then a forced compaction.
		for i, n := 0, rng.Intn(30); i < n; i++ {
			if g.Len() > 0 && rng.Intn(4) == 0 {
				ts := g.Triples()
				v := ts[rng.Intn(len(ts))]
				g.Remove(v.S, v.P, v.O)
				continue
			}
			g.Add(vocab(), vocab(), vocab())
		}
		if rng.Intn(5) == 0 {
			g.Compact()
		}
		var tps []sparql.TriplePattern
		for i, n := 0, rng.Intn(6); i < n; i++ {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				tps = append(tps, tps[rng.Intn(i)]) // a repeated pattern
			case rng.Intn(5) == 0:
				tps = append(tps, allPattern())
			default:
				tp := randomPattern(rng)
				if rng.Intn(2) == 0 && !tp.P.IsVar() {
					tp.P = sparql.I(vocab())
				}
				tps = append(tps, tp)
			}
		}
		pats := make([]scanPattern, len(tps))
		for i, tp := range tps {
			pats[i] = patternFromValues(ScanQuery(tp))
		}
		want := sortBuildFrame(sortCollectMatches(graphSource(g), pats)).encode()
		got := buildFrame(collectMatches(graphSource(g), pats)).encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d, patterns %v: frame differs from the oracle's\ngot  %x\nwant %x", round, tps, got, want)
		}
		if len(want) > frameMin {
			frames++
		}
	}
	if frames < 100 {
		t.Fatalf("only %d of 300 rounds produced a non-empty frame", frames)
	}
}

// TestFrameBuilderConcurrentScans: scans running at once on shared
// stores each take their own pooled scratch and leave it clean — every
// frame equals the oracle's, under -race as well.
func TestFrameBuilderConcurrentScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*rdf.Graph{randomGraph(rng, 200), randomGraph(rng, 60)}
	type job struct {
		g    *rdf.Graph
		pats []scanPattern
		want []byte
	}
	var jobs []job
	for i := 0; i < 40; i++ {
		g := graphs[i%len(graphs)]
		var pats []scanPattern
		for j, n := 0, 1+rng.Intn(4); j < n; j++ {
			pats = append(pats, patternFromValues(ScanQuery(randomPattern(rng))))
		}
		want := sortBuildFrame(sortCollectMatches(graphSource(g), pats)).encode()
		jobs = append(jobs, job{g, pats, want})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range jobs {
					j := jobs[(i+w)%len(jobs)]
					if got := buildFrame(collectMatches(graphSource(j.g), j.pats)).encode(); !bytes.Equal(got, j.want) {
						t.Errorf("worker %d, job %d: frame differs from the oracle's", w, (i+w)%len(jobs))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
