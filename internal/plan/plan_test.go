package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// TestEvalMatchesReferenceQuick is the planner's core guarantee: for
// random NS-SPARQL patterns and graphs — and random AND chains over
// UNION/OPT operands, whose joins meet rows of mixed domains — Run
// returns exactly the reference answer, each row once.
func TestEvalMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		for _, p := range []sparql.Pattern{workload.RandomPattern(rng, workload.PatternOpts{Depth: 3}), randomChain(rng)} {
			want := sparql.Eval(g, p)
			got, err := Run(g, Prepare(g, p), nil, Options{})
			if err != nil || !sameRows(got, want) {
				t.Logf("pattern %s\noptimized %s\ngraph\n%s\nwant %v\ngot  %v (err %v)",
					p, Optimize(g, p), g, mappingKeys(want), rowKeys(got), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizePreservesSemanticsQuick(t *testing.T) {
	// Optimize alone (evaluated by the *reference* evaluator) must also
	// preserve answers — this isolates rewriting bugs from algebra bugs.
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		if !sparql.Eval(g, p).Equal(sparql.Eval(g, Optimize(g, p))) {
			t.Logf("pattern %s\noptimized %s\ngraph\n%s", p, Optimize(g, p), g)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEvalConstructMatchesReference(t *testing.T) {
	g := workload.Figure3()
	q := parser.MustParseConstruct(`CONSTRUCT {(?n affiliated_to ?u), (?n email ?e)}
		WHERE ((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	out, err := run(t, g, Prepare(g, q.Where), Options{}).Graph(q.Template, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(sparql.EvalConstruct(g, q)) {
		t.Fatal("planner CONSTRUCT differs from reference")
	}
}

func TestFilterPushdown(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 50, OptionalPct: 50, Seed: 3})
	p := parser.MustParsePattern(
		`((?p name ?n) AND (?p works_at ?u)) FILTER (?u = university_0 && bound(?n))`)
	opt := Optimize(g, p)
	// The conjuncts must have been pushed inside the AND: the top node
	// is no longer a Filter.
	if _, isFilter := opt.(sparql.Filter); isFilter {
		t.Fatalf("filter not pushed down: %s", opt)
	}
	checkRun(t, g, p, PlannerOptions{}, Options{})
}

func TestFilterNotPushedWhenUnsafe(t *testing.T) {
	// ¬bound over an optional variable must stay at the top: pushing it
	// into the OPT's left side would change semantics.
	g := workload.Figure2G2()
	p := parser.MustParsePattern(
		`((?X was_born_in Chile) OPT (?X email ?Y)) FILTER (!(bound(?Y)))`)
	opt := Optimize(g, p)
	if _, isFilter := opt.(sparql.Filter); !isFilter {
		t.Fatalf("unsafe filter was pushed: %s", opt)
	}
	checkRun(t, g, p, PlannerOptions{}, Options{})
}

func TestJoinOrdering(t *testing.T) {
	// The selective triple pattern (?p name Name_3) should be joined
	// before the broad (?p ?r ?x) one.
	g := workload.University(workload.UniversityOpts{People: 100, OptionalPct: 50, Seed: 4})
	p := parser.MustParsePattern(`(?p ?r ?x) AND (?p name Name_3)`)
	opt := Optimize(g, p).(sparql.And)
	if Estimate(g, opt.L) > Estimate(g, opt.R) {
		// With two operands, the chain is L then R; L must be the
		// smaller estimate.
		t.Fatalf("join order not by selectivity: %s", opt)
	}
	checkRun(t, g, p, PlannerOptions{}, Options{})
}

func TestEstimate(t *testing.T) {
	g := rdf.FromTriples(
		rdf.T("a", "p", "x"), rdf.T("b", "p", "y"), rdf.T("c", "q", "z"),
	)
	tp := func(s string) sparql.Pattern { return parser.MustParsePattern(s) }
	if got := Estimate(g, tp(`(?s p ?o)`)); got != 2 {
		t.Fatalf("Estimate(?s p ?o) = %v", got)
	}
	if got := Estimate(g, tp(`(?s ?p ?o)`)); got != 3 {
		t.Fatalf("Estimate(?s ?p ?o) = %v", got)
	}
	if got := Estimate(g, tp(`(?s zzz ?o)`)); got != 0 {
		t.Fatalf("Estimate of unmatched predicate = %v", got)
	}
	if got := Estimate(g, tp(`(?s p ?o) UNION (?s q ?o)`)); got != 3 {
		t.Fatalf("Estimate of union = %v", got)
	}
}

func TestCountMatchAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := workload.RandomGraph(rng, 60, nil)
	iris := []rdf.IRI{"a", "b", "c", "p", "q", "zzz"}
	for mask := 0; mask < 8; mask++ {
		for trial := 0; trial < 20; trial++ {
			var s, p, o *rdf.IRI
			if mask&1 != 0 {
				i := iris[rng.Intn(len(iris))]
				s = &i
			}
			if mask&2 != 0 {
				i := iris[rng.Intn(len(iris))]
				p = &i
			}
			if mask&4 != 0 {
				i := iris[rng.Intn(len(iris))]
				o = &i
			}
			n := 0
			g.Match(s, p, o, func(rdf.Triple) bool { n++; return true })
			if got := g.CountMatch(s, p, o); got != n {
				t.Fatalf("CountMatch mask=%b: got %d, want %d", mask, got, n)
			}
		}
	}
}

// TestStringAlgebraMatchesRowsQuick pins the E20 ablation baseline and
// Run's fallback past sparql.MaxSchemaVars: the optimized pattern on
// the string algebra (sparql.EvalBudget) and Run on the row engine
// return the same answer.
func TestStringAlgebraMatchesRowsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		str, err := sparql.EvalBudget(g, Optimize(g, p), nil)
		if err != nil {
			return false
		}
		rows, err := Run(g, Prepare(g, p), nil, Options{})
		return err == nil && sameRows(rows, str)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
