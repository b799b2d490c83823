package sparql

import (
	"repro/internal/rdf"
)

// Member decides the evaluation problem of Section 7 — µ ∈ ⟦P⟧_G? —
// without materializing the full answer set.  It runs the constrained
// evaluation evalCompatible with µ as the constraint, which substitutes
// µ's bindings into triple patterns as constants, pruning the search
// space to mappings compatible with µ.  It is the paper's membership
// procedure, for the facade, E21 and the reduction gadgets; the
// servers never run it.
func Member(g rdf.Store, p Pattern, mu Mapping) bool {
	return evalCompatible(g, p, mu).Contains(mu)
}

// evalCompatible returns {ν ∈ ⟦P⟧_G | ν ∼ c}: exactly the answers
// compatible with the constraint mapping c.  With c = µ∅ it coincides
// with Eval.
//
// The pruning pushes c through the algebra:
//
//   - triple patterns treat variables bound by c as constants;
//   - AND/UNION/FILTER constrain both sides with c directly (a join
//     result is compatible with c iff both factors are);
//   - SELECT restricts the constraint to the projected variables;
//   - the difference part of OPT and the maximality check of NS re-run
//     the sub-pattern constrained by the *candidate* mapping, since a
//     blocking extension need not be compatible with c.
//
// The OPT difference loop and the NS maximality loop re-evaluate the
// sub-pattern once per candidate — exactly the recursions that make the
// non-monotone operators expensive (Theorems 7.2–7.4).  A pattern
// outside the algebra has no answers.
func evalCompatible(g rdf.Store, p Pattern, c Mapping) *MappingSet {
	switch q := p.(type) {
	case TriplePattern:
		return evalTripleConstrained(g, q, c)
	case And:
		return evalCompatible(g, q.L, c).JoinHash(evalCompatible(g, q.R, c))
	case Union:
		return evalCompatible(g, q.L, c).Union(evalCompatible(g, q.R, c))
	case Opt:
		left := evalCompatible(g, q.L, c)
		out := left.JoinHash(evalCompatible(g, q.R, c))
		for _, mu1 := range left.Mappings() {
			// µ1 survives iff no mapping of ⟦P2⟧ is compatible with it —
			// a check on the *unrestricted* right side, pruned by µ1.
			if evalCompatible(g, q.R, mu1).Len() == 0 {
				out.Add(mu1)
			}
		}
		return out
	case Filter:
		return evalCompatible(g, q.P, c).Filter(q.Cond)
	case Select:
		return evalCompatible(g, q.P, c.Restrict(q.Vars)).Project(q.Vars)
	case NS:
		out := NewMappingSet()
		for _, mu := range evalCompatible(g, q.P, c).Mappings() {
			// A proper subsumer of µ is compatible with µ but not
			// necessarily with c, so re-evaluate constrained by µ.
			maximal := true
			for _, nu := range evalCompatible(g, q.P, mu).Mappings() {
				if mu.ProperlySubsumedBy(nu) {
					maximal = false
					break
				}
			}
			if maximal {
				out.Add(mu)
			}
		}
		return out
	default:
		return NewMappingSet()
	}
}

// evalTripleConstrained matches a triple pattern with the constraint's
// bindings substituted as constants.
func evalTripleConstrained(g rdf.Store, t TriplePattern, c Mapping) *MappingSet {
	bind := func(v Value) Value {
		if v.IsVar() {
			if iri, ok := c[v.Var()]; ok {
				return I(iri)
			}
		}
		return v
	}
	out := NewMappingSet()
	for _, mu := range evalTriple(g, TP(bind(t.S), bind(t.P), bind(t.O))).Mappings() {
		// Re-attach the substituted bindings, so that dom(ν) = var(t)
		// as the semantics requires.  (A substituted variable cannot
		// also be matched: it occurs only as a constant in ground.)
		full := mu.Clone()
		for _, v := range Vars(t) {
			if iri, ok := c[v]; ok {
				full[v] = iri
			}
		}
		out.Add(full)
	}
	return out
}
