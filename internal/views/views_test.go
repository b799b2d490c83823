package views

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func TestNewRejectsNonMonotone(t *testing.T) {
	base := rdf.NewGraph()
	for _, text := range []string{
		"CONSTRUCT {(?x out ?y)} WHERE (?x a ?y) OPT (?x b ?z)",
		"CONSTRUCT {(?x out ?x)} WHERE NS((?x a b))",
		"CONSTRUCT {(?x out ?x)} WHERE SELECT {?x} WHERE (?x a ?y)",
	} {
		q := parser.MustParseConstruct(text)
		if _, err := New(q, base); err == nil {
			t.Errorf("non-AUF view accepted: %s", text)
		}
	}
}

func TestViewBasics(t *testing.T) {
	base := rdf.FromTriples(rdf.T("juan", "born", "chile"))
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p chilean yes)} WHERE (?p born chile)")
	v, err := New(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if v.Graph().Len() != 1 || !v.Graph().Contains("juan", "chilean", "yes") {
		t.Fatalf("initial view:\n%s", v.Graph())
	}
	// Mutating the original base must not affect the view's snapshot.
	base.Add("ana", "born", "chile")
	if v.Base().Len() != 1 {
		t.Fatal("view base not snapshotted")
	}
	// Inserting through the view extends the output.
	if added := v.Insert(rdf.T("ana", "born", "chile")); added != 1 {
		t.Fatalf("added = %d", added)
	}
	if !v.Graph().Contains("ana", "chilean", "yes") {
		t.Fatal("incremental triple missing")
	}
	// Re-inserting is a no-op.
	if added := v.Insert(rdf.T("ana", "born", "chile")); added != 0 {
		t.Fatal("duplicate insert produced output")
	}
}

func TestViewJoinAcrossDelta(t *testing.T) {
	// A join whose two sides arrive in separate inserts: the AND delta
	// rule must combine new triples with both old and new ones.
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	v, err := New(q, rdf.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	v.Insert(rdf.T("ana", "works_at", "puc"))
	if v.Graph().Len() != 0 {
		t.Fatal("half a join produced output")
	}
	v.Insert(rdf.T("puc", "located_in", "chile"))
	if !v.Graph().Contains("ana", "works_in", "chile") {
		t.Fatalf("join across deltas missed:\n%s", v.Graph())
	}
	// Both sides within one delta.
	v.Insert(rdf.T("bob", "works_at", "uc"), rdf.T("uc", "located_in", "peru"))
	if !v.Graph().Contains("bob", "works_in", "peru") {
		t.Fatalf("join within one delta missed:\n%s", v.Graph())
	}
}

// TestViewMatchesRecomputeQuick: after any sequence of inserts, the
// incrementally maintained output equals a from-scratch recomputation.
func TestViewMatchesRecomputeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		auf := workload.PatternOpts{Depth: 3, Ops: []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter}}
		p := workload.RandomPattern(rng, auf)
		if rng.Intn(3) == 0 {
			// A FILTER (bound(?v)) that the AND rule probes: one UNION
			// branch may leave ?v unbound while the delta side binds it,
			// and the condition must read it as unbound there.
			auf.Depth = 2
			v := workload.DefaultVars[rng.Intn(len(workload.DefaultVars))]
			p = sparql.And{L: p, R: sparql.Filter{
				P:    sparql.Union{L: workload.RandomPattern(rng, auf), R: workload.RandomPattern(rng, auf)},
				Cond: sparql.Bound{X: v},
			}}
		}
		vars := sparql.Vars(p)
		tmpl := []sparql.TriplePattern{sparql.TP(sparql.I("s"), sparql.I("p"), sparql.I("o"))}
		if len(vars) > 0 {
			tmpl = append(tmpl, sparql.TP(
				sparql.V(vars[rng.Intn(len(vars))]), sparql.I("out"), sparql.V(vars[rng.Intn(len(vars))])))
		}
		q := sparql.ConstructQuery{Template: tmpl, Where: p}
		v, err := New(q, workload.RandomGraph(rng, rng.Intn(10), nil))
		if err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			var batch []rdf.Triple
			ext := workload.RandomGraph(rng, 1+rng.Intn(5), nil)
			ext.ForEach(func(tr rdf.Triple) bool { batch = append(batch, tr); return true })
			v.Insert(batch...)
			want := sparql.EvalConstruct(v.Base(), q)
			if !v.Graph().Equal(want) {
				t.Logf("query %s\nview:\n%s\nrecompute:\n%s", q, v.Graph(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWideViewMatchesRecompute: a WHERE clause wider than the row
// engine (70 variables) is maintained by running it again in full;
// across inserts the view must equal a recompute.
func TestWideViewMatchesRecompute(t *testing.T) {
	var ops []sparql.Pattern
	g := rdf.NewGraph()
	for i := 0; i < 35; i++ {
		ops = append(ops, sparql.TP(
			sparql.V(sparql.Var(fmt.Sprintf("v%d", 2*i))),
			sparql.I(rdf.IRI(fmt.Sprintf("p%d", i))),
			sparql.V(sparql.Var(fmt.Sprintf("v%d", 2*i+1)))))
		g.Add(rdf.IRI(fmt.Sprintf("n%d", 2*i)), rdf.IRI(fmt.Sprintf("p%d", i)), rdf.IRI(fmt.Sprintf("n%d", 2*i+1)))
	}
	where := sparql.Union{
		L: sparql.AndOf(ops...),
		R: sparql.Filter{P: sparql.TP(sparql.V("v0"), sparql.I("q"), sparql.V("v69")), Cond: sparql.Bound{X: "v0"}},
	}
	if _, ok := sparql.SchemaFor(where); ok {
		t.Fatal("pattern fits the row engine; the test needs a wider one")
	}
	q := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{sparql.TP(sparql.V("v0"), sparql.I("link"), sparql.V("v69"))},
		Where:    where,
	}
	v, err := New(q, g)
	if err != nil {
		t.Fatal(err)
	}
	for round, batch := range [][]rdf.Triple{
		{rdf.T("m0", "p0", "m1")},
		{rdf.T("m68", "p34", "m69"), rdf.T("x", "q", "y")},
		{rdf.T("n0", "p0", "n1")}, // already there: no delta
		{rdf.T("k2", "p1", "k3"), rdf.T("k68", "p34", "k69")},
	} {
		added := v.Insert(batch...)
		want := sparql.EvalConstruct(v.Base(), q)
		if !v.Graph().Equal(want) {
			t.Fatalf("round %d: view\n%s\nrecompute\n%s", round, v.Graph(), want)
		}
		t.Logf("round %d: %d new triples, %d in the view", round, added, v.Graph().Len())
	}
	if v.Graph().Len() < 4 {
		t.Fatalf("the inserts derived too little: %d triples", v.Graph().Len())
	}
}
