package plan

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// mutate applies 1–20 random inserts and deletes to g.  Inserts draw
// from the pattern pool plus IRIs no pattern mentions, deletes from the
// triples present.
func mutate(rng *rand.Rand, g *rdf.Graph) {
	pool := append(append([]rdf.IRI(nil), workload.DefaultIRIs...), "n0", "n1")
	for i, n := 0, 1+rng.Intn(20); i < n; i++ {
		if rng.Intn(3) > 0 || g.Len() == 0 {
			g.Add(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
			continue
		}
		victim, k := rdf.Triple{}, rng.Intn(g.Len())
		g.ForEach(func(t rdf.Triple) bool {
			victim = t
			k--
			return k >= 0
		})
		g.Remove(victim.S, victim.P, victim.O)
	}
}

// randomChain draws an AND chain of 3–5 operands, the shape that arms
// the chain drivers; one operand in three is a small UNION/OPT pattern.
func randomChain(rng *rand.Rand) sparql.Pattern {
	operand := func() sparql.Pattern {
		if rng.Intn(3) == 0 {
			return workload.RandomPattern(rng, workload.PatternOpts{Depth: 1 + rng.Intn(2), Ops: []sparql.Op{sparql.OpUnion, sparql.OpOpt}})
		}
		return workload.RandomTriplePattern(rng, &workload.PatternOpts{})
	}
	p := operand()
	for i, n := 1, 3+rng.Intn(3); i < n; i++ {
		p = sparql.And{L: p, R: operand()}
	}
	return p
}

// TestStalePlanMatchesReference: a plan prepared on G and run after
// random inserts and deletes have changed G — compactions included, so
// the base arrays it was counted on are gone — returns exactly the
// reference answer on the changed graph.  RandomPattern × RandomGraph
// over the five fragments plus random chains, 300 seeds each, on the
// tree evaluator and the adaptive chain.
func TestStalePlanMatchesReference(t *testing.T) {
	paths := []struct {
		name string
		po   PlannerOptions
		o    Options
	}{
		{"tree", PlannerOptions{NoReplan: true}, Options{}},
		{"adaptive chain", PlannerOptions{}, Options{}},
	}
	type gen struct {
		name string
		draw func(rng *rand.Rand) sparql.Pattern
	}
	fragment := func(ops []sparql.Op, ns string) func(rng *rand.Rand) sparql.Pattern {
		return func(rng *rand.Rand) sparql.Pattern {
			p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
			switch ns {
			case "wrap":
				p = sparql.NS{P: p}
			case "union":
				q := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: ops})
				p = sparql.Union{L: sparql.NS{P: p}, R: sparql.NS{P: q}}
			}
			return p
		}
	}
	a, u, o, f, s, n := sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS
	gens := []gen{
		{"chain", randomChain},
		{"AF", fragment([]sparql.Op{a, f}, "")},
		{"AUFS", fragment([]sparql.Op{a, u, f, s}, "")},
		{"SP", fragment([]sparql.Op{a, u, f, s}, "wrap")},
		{"USP", fragment([]sparql.Op{a, f, s}, "union")},
		{"full", fragment([]sparql.Op{a, u, o, f, s, n}, "")},
	}
	compactions := 0
	for _, gn := range gens {
		t.Run(gn.name, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				g.SetCompactionThreshold(1 + rng.Intn(4))
				p := gn.draw(rng)
				prs := make([]Prepared, len(paths))
				for i, path := range paths {
					prs[i] = PrepareOpts(g, p, path.po)
				}
				c0 := g.Stats().Compactions
				mutate(rng, g)
				compactions += int(g.Stats().Compactions - c0)
				want := sparql.Eval(g, p)
				for i, path := range paths {
					if rows := run(t, g, prs[i], path.o); !sameRows(rows, want) {
						t.Fatalf("seed %d, %s: stale plan diverges on\n%s\ngraph\n%s\ngot  %v\nwant %v",
							seed, path.name, p, g, rowKeys(rows), mappingKeys(want))
					}
				}
			}
		})
	}
	if compactions == 0 {
		t.Fatal("no mutation compacted the graph: the base arrays never moved under a plan")
	}
}

// driftGraph holds n triples (s_i p o) and one (a q b).
func driftGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.IRI(fmt.Sprintf("s%d", i)), "p", "o")
	}
	g.Add("a", "q", "b")
	return g
}

// setCount adds or removes (s_i p o) triples until there are n.
func setCount(g *rdf.Graph, n int) {
	p, o := rdf.IRI("p"), rdf.IRI("o")
	for have := g.CountMatch(nil, &p, &o); have < n; have++ {
		g.Add(rdf.IRI(fmt.Sprintf("s%d", have)), p, o)
	}
	for have := g.CountMatch(nil, &p, &o); have > n; have-- {
		g.Remove(rdf.IRI(fmt.Sprintf("s%d", have-1)), p, o)
	}
}

// TestDriftedBandEdges: with the default factor 4 and a leaf counted
// 12 at prepare time, the band is [est/4, est·4] with one row of slack
// on each side — 3…49 stays, 2 (est/4-1) and 50 (est·4+2) drift — and
// a plan answers correctly on either side of the edge.
func TestDriftedBandEdges(t *testing.T) {
	q := parser.MustParsePattern("(?x p o) AND (?x q ?y)")
	for _, tc := range []struct {
		n       int
		drifted bool
	}{
		{12, false}, {3, false}, {2, true}, {0, true}, {49, false}, {50, true}, {200, true},
	} {
		g := driftGraph(12)
		pr := PrepareOpts(g, q, PlannerOptions{})
		setCount(g, tc.n)
		if got := pr.Drifted(g); got != tc.drifted {
			t.Errorf("leaf count 12 → %d: Drifted = %t, want %t", tc.n, got, tc.drifted)
		}
		if got := run(t, g, pr, Options{}); !sameRows(got, sparql.Eval(g, q)) {
			t.Errorf("leaf count 12 → %d: answer differs from reference", tc.n)
		}
	}
}

// TestDriftedReplanFactor: the band follows PlannerOptions.ReplanFactor.
func TestDriftedReplanFactor(t *testing.T) {
	q := parser.MustParsePattern("(?x p o)")
	g := driftGraph(12)
	pr := PrepareOpts(g, q, PlannerOptions{ReplanFactor: 2})
	setCount(g, 25) // 12·2+1 — the last count inside
	if pr.Drifted(g) {
		t.Error("25 drifted from 12 under factor 2")
	}
	setCount(g, 26)
	if !pr.Drifted(g) {
		t.Error("26 did not drift from 12 under factor 2")
	}
}

// TestDriftedFromZero: a leaf with no matches at prepare time — its
// constants known to the dictionary, or not interned at all — drifts
// once it has two (the band's one row of slack keeps 0 → 1 inside),
// and the plan prepared on the empty leaf sees the new triples.
func TestDriftedFromZero(t *testing.T) {
	for _, text := range []string{
		"(?x q o) AND (?x p ?y)",      // q and o are interned, (?x q o) matches nothing
		"(?x fresh ?y) AND (?x p ?z)", // fresh is not in the dictionary
	} {
		g := driftGraph(4)
		q := parser.MustParsePattern(text)
		pr := PrepareOpts(g, q, PlannerOptions{})
		if pr.Drifted(g) {
			t.Fatalf("%s: drifted on the graph it was prepared on", text)
		}
		pred := q.(sparql.And).L.(sparql.TriplePattern).P.IRI()
		g.Add("s0", pred, "o")
		if pr.Drifted(g) {
			t.Errorf("%s: 0 → 1 drifted", text)
		}
		g.Add("s1", pred, "o")
		if !pr.Drifted(g) {
			t.Errorf("%s: 0 → 2 did not drift", text)
		}
		got := run(t, g, pr, Options{})
		if want := sparql.Eval(g, q); !sameRows(got, want) || got.Len() != 2 {
			t.Errorf("%s: stale plan answered %v, reference %v", text, rowKeys(got), mappingKeys(want))
		}
	}
}

// TestDriftedZeroPrepared: a zero Prepared has no statistics to drift.
func TestDriftedZeroPrepared(t *testing.T) {
	if (Prepared{}).Drifted(driftGraph(3)) {
		t.Fatal("a zero Prepared drifted")
	}
}

// TestPreparedPinsNoStore: a plan kept after Prepare — as a plan cache
// keeps it — holds its estimates but not the store it was prepared
// on.  It answers on a second store, the adaptive chain's re-plan
// probes included, and the first store is collectable while the plan
// is alive.  (A finalizer stands in for a weak pointer, which needs a
// newer Go than go.mod asks for.)
func TestPreparedPinsNoStore(t *testing.T) {
	q := parser.MustParsePattern("(?x p ?y) AND (?y q ?z) AND (?z r ?w) AND (?w s ?v)")
	build := func(fan int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < 6; i++ {
			for j := 0; j < fan; j++ {
				g.Add(rdf.IRI(fmt.Sprintf("a%d", i)), "p", rdf.IRI(fmt.Sprintf("b%d", j)))
				g.Add(rdf.IRI(fmt.Sprintf("b%d", j)), "q", rdf.IRI(fmt.Sprintf("c%d", i)))
			}
			g.Add(rdf.IRI(fmt.Sprintf("c%d", i)), "r", rdf.IRI(fmt.Sprintf("d%d", i)))
			g.Add(rdf.IRI(fmt.Sprintf("d%d", i)), "s", "e")
		}
		return g
	}
	collected := make(chan struct{})
	pr := func() Prepared {
		g1 := build(1)
		runtime.SetFinalizer(g1, func(*rdf.Graph) { close(collected) })
		return PrepareOpts(g1, q, PlannerOptions{})
	}()
	if !pr.adaptiveArmed() {
		t.Fatal("the chain does not arm the adaptive driver")
	}
	g2 := build(20) // the p ⋈ q prefix is 20× the estimate: a re-plan
	want := sparql.Eval(g2, q)
	if got := run(t, g2, pr, Options{}); !sameRows(got, want) {
		t.Fatal("answer on the second store differs from the reference")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(pr)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(pr)
	t.Fatal("the prepared plan keeps the store it was prepared on alive")
}
