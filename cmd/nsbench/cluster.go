package main

// Experiment E27: the scale-out ablation.  The cluster coordinator
// (internal/cluster) answers a query by gathering every triple
// pattern's matches from N hash-by-subject shards over the /scan wire
// protocol and evaluating the ordinary single-node engine on the
// merged subgraph.  This experiment prices that loop — HTTP round
// trips, N-Triples (de)serialization, the k-way merge and the rebuilt
// local indexes — against the single-node engine on the same data, at
// 1, 2 and 4 shards.  The shards are in-process httptest servers, so
// the rows measure protocol and merge overhead without real network
// latency; the 1-shard column is the pure protocol tax, and the text
// mode proves the exactness claim (cluster ≡ single-node) on both
// workloads first.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// e27Queries reuses the E20 join and the E21 wide union verbatim, so
// the cluster rows sit next to single-node rows measured on the very
// same query texts.
var e27Queries = []struct {
	name string
	text string
}{
	{"join3", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
	{"union8", `((?p name ?n) AND (?p works_at ?u))
		UNION ((?p email ?e) AND (?p works_at ?u))
		UNION ((?p phone ?f) AND (?p works_at ?u))
		UNION ((?p homepage ?h) AND (?p works_at ?u))
		UNION ((?p founder ?u) AND (?u stands_for ?m))
		UNION ((?p was_born_in ?c) AND (?p works_at ?u))
		UNION ((?p name ?n) AND (?p founder ?u))
		UNION ((?p email ?e) AND (?p was_born_in ?c))`},
}

var e27ShardCounts = []int{1, 2, 4}

// e27Fixture is one cluster instance: the full workload graph (the
// single-node baseline) and a coordinator over n in-process shard
// servers, each holding its hash-by-subject partition.
type e27Fixture struct {
	full  *rdf.Graph
	coord *cluster.Coordinator
}

// e27Build partitions the E20 University workload across n httptest
// shard servers and fronts them with a coordinator.  Hedging and the
// prober are off and the seed pinned: the benches should measure the
// scatter-gather loop, not the fault machinery.  Servers and
// coordinator live for the process, like the E26 durable store.
func e27Build(n int) *e27Fixture {
	g := workload.University(workload.UniversityOpts{People: 1000, OptionalPct: 50, FoundersPct: 10, Seed: 1})
	triples := make([]rdf.Triple, 0, g.Len())
	g.ForEach(func(t rdf.Triple) bool { triples = append(triples, t); return true })
	urls := make([]string, 0, n)
	for _, part := range cluster.Partition(triples, n) {
		pg := rdf.FromTriples(part...)
		pg.Compact()
		mux := http.NewServeMux()
		mux.Handle("/scan", cluster.ScanHandler(func() (rdf.Store, func()) {
			return pg, pg.AcquireRead()
		}))
		urls = append(urls, httptest.NewServer(mux).URL)
	}
	coord, err := cluster.New(cluster.Options{
		Shards:         urls,
		ScanTimeout:    30 * time.Second,
		DisableHedging: true,
		ProbeInterval:  -1,
		Seed:           1,
	})
	if err != nil {
		panic(fmt.Sprintf("nsbench: E27 coordinator: %v", err))
	}
	return &e27Fixture{full: g, coord: coord}
}

// e27Fixtures builds each shard count's cluster lazily and at most
// once, so text runs and unrelated -run ids never pay for servers
// they do not touch.
var e27Fixtures = func() map[int]func() *e27Fixture {
	m := make(map[int]func() *e27Fixture, len(e27ShardCounts))
	for _, n := range e27ShardCounts {
		n := n
		m[n] = sync.OnceValue(func() *e27Fixture { return e27Build(n) })
	}
	return m
}()

// e27Gather scatters the patterns and panics on any shard failure:
// in-process shards never legitimately fail, so a partial answer here
// is a harness bug, not a measurement.
func e27Gather(f *e27Fixture, tps []sparql.TriplePattern) rdf.Store {
	sub, statuses, partial := f.coord.Gather(context.Background(), tps)
	if partial {
		panic(fmt.Sprintf("nsbench: E27 gather went partial: %+v", statuses))
	}
	return sub
}

// e27Answer is the full coordinator query path: gather the subgraph,
// compile against it and evaluate locally.
func e27Answer(f *e27Fixture, p sparql.Pattern, tps []sparql.TriplePattern) *sparql.MappingSet {
	sub := e27Gather(f, tps)
	res, err := exec.EvalCompiled(sub, exec.Compile(sub, p, nil, false), nil, plan.Options{})
	if err != nil {
		panic(fmt.Sprintf("nsbench: E27 eval failed: %v", err))
	}
	return res.Rows
}

func init() {
	for _, q := range e27Queries {
		q := q
		p := mustPattern(q.text)
		tps := sparql.TriplePatterns(p)

		baseParams := map[string]interface{}{"query": q.name, "people": 1000}
		registerBench("E27", "single-node", baseParams, func(b *testing.B) {
			f := e27Fixtures[1]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalPlanned(f.full, p, plan.Options{})
			}
		})

		for _, n := range e27ShardCounts {
			fixture := e27Fixtures[n]
			params := map[string]interface{}{"query": q.name, "people": 1000, "shards": n}
			registerBench("E27", "cluster-gather", params, func(b *testing.B) {
				f := fixture()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e27Gather(f, tps)
				}
			})
			registerBench("E27", "cluster-query", params, func(b *testing.B) {
				f := fixture()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e27Answer(f, p, tps)
				}
			})
		}
	}

	register("E27", "Scale-out ablation: scatter-gather cluster vs single-node engine at 1/2/4 shards", func() {
		for _, q := range e27Queries {
			p := mustPattern(q.text)
			tps := sparql.TriplePatterns(p)
			want := evalPlanned(e27Fixtures[1]().full, p, plan.Options{})
			for _, n := range e27ShardCounts {
				got := e27Answer(e27Fixtures[n](), p, tps)
				check(got.Equal(want),
					fmt.Sprintf("%s over %d shard(s): %d rows, identical to single-node", q.name, n, got.Len()))
			}
		}
		fmt.Println("  (timings: nsbench -json -run E27)")
	})
}
