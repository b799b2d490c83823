// Package exec runs queries: Compile plans a SELECT, ASK or CONSTRUCT
// query and Run executes it (EvalCompiled materialises the answer), the
// one path both servers and nsq take.  Beside it sit the entry points
// that want only part of an answer: ASK (Run on a Compiled with Ask
// set) decides whether a pattern has any solution, Limit returns k
// solutions and ConstructContains decides one CONSTRUCT output triple.
//
// All of them are plan.Run: the part-answer ones set plan.Options.Cap,
// and the engine stops as soon as it has that many rows where the
// plan's shape lets it — an AND chain drives its first operand's rows
// through the chain in growing morsels, UNION skips its right side
// once the left one fills the cap — and materialises where it must
// (OPT, NS, FILTER).  Early exit thus follows the plan's own join
// order with the row engine's set semantics, and on the monotone
// fragment it is the certificate search that witnesses the NP
// membership of Eval(SPARQL[AUFS]) (Section 7).
package exec

import (
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Limit returns up to k distinct solutions of ⟦P⟧_G (all of them for
// k < 0): p is planned once and run with a cap of k rows.  The answer
// charges b's row limit, so MaxRows bounds the result set even for
// k < 0; a nil b disables accounting.
func Limit(g rdf.Store, p sparql.Pattern, k int, b *sparql.Budget, o plan.Options) (*sparql.MappingSet, error) {
	if k == 0 {
		return sparql.NewMappingSet(), nil
	}
	o.Cap = max(k, 0)
	rows, err := plan.Run(g, plan.Prepare(g, p), b, o)
	if err != nil {
		return nil, err
	}
	return rows.MappingSet(), nil
}

// ConstructContains decides t ∈ ans(Q, G), the decision problem of
// Section 7.3.  A solution µ produces t from a template triple exactly
// when µ binds every variable of the triple to the IRI that t has in
// its place, so the WHERE pattern is run, once, under a root FILTER
// asking for that of some template triple, with a cap of one row.
// Being a condition on the answers of the whole WHERE pattern, the
// filter is exact in every fragment, OPT, NS and SELECT scopes
// included.  A nil b disables accounting.
func ConstructContains(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple, b *sparql.Budget, o plan.Options) (bool, error) {
	var conds []sparql.Condition
	for _, tp := range q.Template {
		if c, ok := templateCond(tp, target); ok {
			conds = append(conds, c)
		}
	}
	if len(conds) == 0 {
		return false, nil
	}
	// A template triple without variables makes the condition true,
	// and planning drops the FILTER.
	where := sparql.Filter{P: q.Where, Cond: sparql.DisjoinConds(conds...)}
	o.Cap = 1
	rows, err := plan.Run(g, plan.Prepare(g, where), b, o)
	if err != nil {
		return false, err
	}
	return rows.Len() > 0, nil
}

// templateCond returns the condition under which a solution
// instantiates the template triple tp to tr — every variable of tp
// bound to the IRI tr has in its place — and false when no solution can
// (a constant, or a repeated variable, disagrees with tr).
func templateCond(tp sparql.TriplePattern, tr rdf.Triple) (sparql.Condition, bool) {
	var conds []sparql.Condition
	bound := make(map[sparql.Var]rdf.IRI, 3)
	for i, v := range [3]sparql.Value{tp.S, tp.P, tp.O} {
		iri := [3]rdf.IRI{tr.S, tr.P, tr.O}[i]
		if !v.IsVar() {
			if v.IRI() != iri {
				return nil, false
			}
			continue
		}
		if prev, ok := bound[v.Var()]; ok {
			if prev != iri {
				return nil, false
			}
			continue
		}
		bound[v.Var()] = iri
		conds = append(conds, sparql.EqConst{X: v.Var(), C: iri})
	}
	return sparql.ConjoinConds(conds...), true
}
