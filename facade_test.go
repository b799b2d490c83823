package nssparql

import (
	"testing"

	"repro/internal/sparql"
)

// bogusPattern is a pattern node outside the algebra.
type bogusPattern struct{ sparql.Pattern }

func (bogusPattern) String() string { return "BOGUS" }

// TestEvalOptimizedPanicsLikeEval: the planner-backed facade never
// answers a pattern outside the algebra with an empty set; it panics
// with the message Eval panics with.
func TestEvalOptimizedPanicsLikeEval(t *testing.T) {
	g := NewGraph()
	g.Add("a", "p", "b")
	panicOf := func(eval func(Store, Pattern) *MappingSet, p Pattern) (msg any) {
		defer func() { msg = recover() }()
		eval(g, p)
		return nil
	}
	for _, p := range []Pattern{
		bogusPattern{},
		sparql.And{L: sparql.TP(sparql.V("x"), sparql.I("p"), sparql.V("y")), R: bogusPattern{}},
	} {
		want := panicOf(Eval, p)
		if want == nil {
			t.Fatalf("Eval(%s) did not panic", p)
		}
		if got := panicOf(EvalOptimized, p); got != want {
			t.Errorf("EvalOptimized(%s) panicked with %v, Eval with %v", p, got, want)
		}
	}
}
