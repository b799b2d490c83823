package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/views"
)

// widePattern is a conjunction of 35 triple patterns (?v2i p_i ?v2i+1)
// over 70 variables — wider than sparql.MaxSchemaVars, so every entry
// point evaluates it on the string algebra — and wideGraph holds two
// matches for p_0 and one for every other p_i: two answers.
func widePattern() sparql.Pattern {
	var ops []sparql.Pattern
	for i := 0; i < 35; i++ {
		ops = append(ops, sparql.TP(
			sparql.V(sparql.Var(fmt.Sprintf("v%d", 2*i))),
			sparql.I(rdf.IRI(fmt.Sprintf("p%d", i))),
			sparql.V(sparql.Var(fmt.Sprintf("v%d", 2*i+1)))))
	}
	return sparql.AndOf(ops...)
}

func wideGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 35; i++ {
		g.Add(rdf.IRI(fmt.Sprintf("n%d", 2*i)), rdf.IRI(fmt.Sprintf("p%d", i)), rdf.IRI(fmt.Sprintf("n%d", 2*i+1)))
	}
	g.Add("m0", "p0", "m1")
	g.Add("n69", "q", "w1")
	g.Add("n69", "q", "w2")
	g.Add("a", "r", "b")
	return g
}

// wantSteps fails the test unless err is the step governor's typed
// error.
func wantSteps(t *testing.T, what string, err error) {
	t.Helper()
	var be sparql.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != sparql.BudgetSteps {
		t.Fatalf("%s under a step limit: err = %v, want ErrBudgetExceeded{steps}", what, err)
	}
}

func tinyBudget() *sparql.Budget { return sparql.NewBudget(nil).WithMaxSteps(5) }

// TestWidePatternThroughEveryEntryPoint runs a 70-variable pattern with
// OPT, NS and UNION over it through plan.Run, Limit, ConstructContains
// and a materialized view: each answers exactly what the reference
// evaluator does, and under a step limit each fails with the typed
// budget error instead of panicking or returning part of the answer.
func TestWidePatternThroughEveryEntryPoint(t *testing.T) {
	g := wideGraph()
	wide := widePattern()
	p := sparql.Union{
		L: sparql.NS{P: sparql.Opt{L: wide, R: sparql.TP(sparql.V("v69"), sparql.I("q"), sparql.V("w"))}},
		R: sparql.TP(sparql.V("x"), sparql.I("r"), sparql.V("y")),
	}
	if _, ok := sparql.SchemaFor(p); ok {
		t.Fatal("the test pattern fits the row engine; it must be wider")
	}
	want := sparql.Eval(g, p)
	if want.Len() != 5 {
		t.Fatalf("reference answer has %d rows, want 5", want.Len())
	}

	rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{})
	if err != nil || rows.Len() != want.Len() || !rows.MappingSet().Equal(want) {
		t.Fatalf("plan.Run: %d rows, err %v; want %v", rows.Len(), err, want)
	}
	_, err = plan.Run(g, plan.Prepare(g, p), tinyBudget(), plan.Options{})
	wantSteps(t, "plan.Run", err)

	if got := mustLimit(t, g, p, -1); !got.Equal(want) {
		t.Fatalf("Limit(-1) = %v, want %v", got, want)
	}
	if got := mustLimit(t, g, p, 2); got.Len() != 2 {
		t.Fatalf("Limit(2) returned %d rows", got.Len())
	}
	_, err = Limit(g, p, -1, tinyBudget(), plan.Options{})
	wantSteps(t, "Limit", err)

	q := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{
			sparql.TP(sparql.V("v1"), sparql.I("link"), sparql.V("v0")),
			sparql.TP(sparql.V("v0"), sparql.I("link"), sparql.V("w")),
		},
		Where: p,
	}
	full := sparql.EvalConstruct(g, q)
	for _, tr := range []rdf.Triple{
		rdf.T("n0", "link", "w1"), rdf.T("m0", "link", "w2"), rdf.T("n1", "link", "n0"),
		rdf.T("n0", "link", "n1"), rdf.T("a", "link", "b"),
	} {
		if got := mustContain(t, g, q, tr); got != full.ContainsTriple(tr) {
			t.Fatalf("ConstructContains(%v) = %t, reference %t", tr, got, full.ContainsTriple(tr))
		}
	}
	_, err = ConstructContains(g, q, rdf.T("n0", "link", "w1"), tinyBudget(), plan.Options{})
	wantSteps(t, "ConstructContains", err)

	// Views maintain only the monotone fragment: the wide conjunction
	// UNION the extra branch.
	vq := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{
			sparql.TP(sparql.V("v0"), sparql.I("link"), sparql.V("v69")),
			sparql.TP(sparql.V("x"), sparql.I("rel"), sparql.V("y")),
		},
		Where: sparql.Union{L: wide, R: sparql.TP(sparql.V("x"), sparql.I("r"), sparql.V("y"))},
	}
	v, err := views.New(vq, g)
	if err != nil {
		t.Fatal(err)
	}
	before := rdf.CloneStore(v.Graph())
	if _, err := v.InsertBudget(tinyBudget(), rdf.T("k0", "p0", "k1"), rdf.T("c", "r", "d")); err == nil {
		t.Fatal("view insert under a step limit succeeded")
	} else {
		wantSteps(t, "view insert", err)
	}
	if !v.Graph().Equal(before) || !v.Graph().Equal(sparql.EvalConstruct(v.Base(), vq)) {
		t.Fatal("a failed view insert left a partial answer behind")
	}
	if _, err := v.InsertBudget(nil, rdf.T("k0", "p0", "k1"), rdf.T("c", "r", "d")); err != nil {
		t.Fatal(err)
	}
	if want := sparql.EvalConstruct(v.Base(), vq); !v.Graph().Equal(want) {
		t.Fatalf("view after insert:\n%s\nreference:\n%s", v.Graph(), want)
	}
}
