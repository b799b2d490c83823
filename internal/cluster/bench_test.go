package cluster

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// BenchmarkGather is the coordinator's whole scatter-gather — request,
// shard-side frame, wire, merge, index load — over two in-process
// shards holding a 250-person social graph, on the
// star/chain/tree/flower mix: the in-process twin of the benchmark's
// cluster_mix, for profiling (-cpuprofile) without the served stack.
func BenchmarkGather(b *testing.B) {
	soc := workload.NewSocial(workload.SocialOpts{People: 250, Seed: 1})
	parts := []*rdf.Graph{rdf.NewGraph(), rdf.NewGraph()}
	soc.G.ForEach(func(t rdf.Triple) bool {
		parts[ShardOf(t.S, len(parts))].AddTriple(t)
		return true
	})
	var urls []string
	for _, g := range parts {
		g.Compact()
		srv := httptest.NewServer(ScanHandler(graphSource(g)))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	c, err := New(fastOpts(urls))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var queries [][]sparql.TriplePattern
	for _, p := range soc.MixedQueries(rand.New(rand.NewSource(1)), 40, nil) {
		queries = append(queries, sparql.TriplePatterns(p))
	}
	triples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, statuses, partial := c.Gather(context.Background(), queries[i%len(queries)])
		if partial {
			b.Fatalf("partial gather: %+v", statuses)
		}
		triples += g.Len()
	}
	b.ReportMetric(float64(triples)/float64(b.N), "triples/op")
}

// BenchmarkScanFrame is the shard side of BenchmarkGather alone, in
// process: collectMatches, buildFrame and encode of one POST /scan's
// patterns against one shard of the same two-shard split of the
// 250-person social graph, on the same star/chain/tree/flower mix,
// alternating shards.  No HTTP, no coordinator.
func BenchmarkScanFrame(b *testing.B) {
	soc := workload.NewSocial(workload.SocialOpts{People: 250, Seed: 1})
	parts := []*rdf.Graph{rdf.NewGraph(), rdf.NewGraph()}
	soc.G.ForEach(func(t rdf.Triple) bool {
		parts[ShardOf(t.S, len(parts))].AddTriple(t)
		return true
	})
	for _, g := range parts {
		g.Compact()
	}
	var queries [][]scanPattern
	for _, p := range soc.MixedQueries(rand.New(rand.NewSource(1)), 40, nil) {
		var pats []scanPattern
		for _, tp := range sparql.TriplePatterns(p) {
			pats = append(pats, patternFromValues(ScanQuery(tp)))
		}
		queries = append(queries, pats)
	}
	bytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := parts[i%len(parts)]
		bytes += len(buildFrame(collectMatches(graphSource(g), queries[(i/len(parts))%len(queries)])).encode())
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "frameB/op")
}
