// Package exec runs queries: Compile plans a SELECT, ASK or CONSTRUCT
// query and Run executes it (EvalCompiled materialises the answer), the
// one path both servers and nsq take.  Alongside it sits a backtracking
// executor with early termination: ASK (Run on a Compiled with Ask
// set) decides whether a pattern has any solution, Limit returns the
// first k solutions and ConstructContains decides one CONSTRUCT output
// triple, all without materializing the full answer set when they can
// avoid it.  Every entry point plans once (plan.Prepare) and falls back
// to plan.Run whenever it must materialize.
//
// The search runs on the ID-native row runtime (sparql.Searcher): the
// pattern is optimized once up front, then evaluated depth-first over
// dictionary-encoded rows, binding triple patterns through the
// ID-level graph indexes.  Slots are bound in place in a single row
// buffer and presence masks travel by value, so extending or
// abandoning a partial solution allocates nothing — the string
// engine's Mapping.Clone() per search node is gone.
//
// For the monotone operators (AND, UNION, FILTER, SELECT) this is the
// classic certificate search that witnesses the NP membership of
// Eval(SPARQL[AUFS]) (Section 7).  The non-monotone operators OPT and
// NS need the complete sub-answer sets to decide what survives, so
// sub-patterns under them fall back to the reference evaluator; ASK
// and Limit still terminate early at the outer level.  Patterns wider
// than sparql.MaxSchemaVars are materialized through plan.Run.
package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// instrumentSearch attaches a "search" node under prof and returns a
// completion callback recording wall time, budget deltas and rows out.
// The backtracking searcher interleaves all operators in one depth-first
// walk, so exec profiles it as a single node instead of an operator
// tree; materializing fallbacks go through plan.Run, which builds the
// full tree.  A nil prof costs one nil check.
func instrumentSearch(prof *obs.Node, b *sparql.Budget, detail string) func(rows int64) {
	if prof == nil {
		return func(int64) {}
	}
	node := prof.Child("search", detail)
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	return func(rows int64) {
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		node.AddRowsOut(rows)
	}
}

// askPrepared reports whether ⟦P⟧_G is non-empty for a prepared plan,
// stopping at the first solution found: Run's ASK path.  Monotone
// patterns keep the early-terminating backtracking search, charging the
// budget per index probe; patterns that force full materialization
// anyway — a non-monotone (OPT/NS) root, or a schema wider than the row
// runtime — go through plan.Run's (possibly parallel) row evaluator.
func askPrepared(g rdf.Store, pr plan.Prepared, b *sparql.Budget, o plan.Options) (bool, error) {
	opt := pr.Pattern()
	sc, ok := sparql.SchemaFor(opt)
	if !ok || materializes(opt) {
		rows, err := plan.Run(g, pr, b, o)
		if err != nil {
			return false, err
		}
		return rows.Len() > 0, nil
	}
	done := instrumentSearch(o.Prof, b, "ask")
	found := false
	err := sparql.NewSearcherBudget(g, sc, b).Search(opt, 0, func(uint64) bool {
		found = true
		return false
	})
	if err != nil {
		done(0)
		return false, err
	}
	var rows int64
	if found {
		rows = 1
	}
	done(rows)
	return found, nil
}

// materializes reports whether the root operator needs its complete
// sub-answer sets before it can emit anything, so a backtracking
// search over it cannot terminate early and would only add overhead
// on top of a full evaluation.
func materializes(p sparql.Pattern) bool {
	switch p.(type) {
	case sparql.Opt, sparql.NS:
		return true
	}
	return false
}

// Limit returns up to k distinct solutions of ⟦P⟧_G (all of them for
// k < 0), stopping the search as soon as k are found.  p is planned
// once: monotone patterns run the backtracking search over the plan's
// pattern, and the materializing cases (an OPT/NS root, a schema wider
// than the row runtime) run the plan itself through plan.Run.  The
// search charges b per index probe and each returned solution charges
// its row limit, so MaxRows bounds the result set even for k < 0; a nil
// b disables accounting.
func Limit(g rdf.Store, p sparql.Pattern, k int, b *sparql.Budget, o plan.Options) (*sparql.MappingSet, error) {
	out := sparql.NewMappingSet()
	if k == 0 {
		return out, nil
	}
	pr := plan.Prepare(g, p)
	opt := pr.Pattern()
	sc, ok := sparql.SchemaFor(opt)
	if !ok || materializes(opt) {
		rows, err := plan.Run(g, pr, b, o)
		if err != nil {
			return nil, err
		}
		for _, mu := range rows.MappingSet().Mappings() {
			out.Add(mu)
			if k >= 0 && out.Len() >= k {
				break
			}
		}
		return out, nil
	}
	done := instrumentSearch(o.Prof, b, "limit")
	s := sparql.NewSearcherBudget(g, sc, b)
	seen := sparql.NewRowSet(sc)
	var rowErr error
	err := s.Search(opt, 0, func(m uint64) bool {
		if !seen.Add(s.IDs(), m) {
			return true
		}
		if rowErr = b.AddRows(1); rowErr != nil {
			return false
		}
		out.Add(s.Decode(m))
		return k < 0 || out.Len() < k
	})
	if err == nil {
		err = rowErr
	}
	if err != nil {
		done(0)
		return nil, err
	}
	done(int64(out.Len()))
	return out, nil
}

// ConstructContains decides t ∈ ans(Q, G) with early termination: the
// target triple is unified with each template triple, the resulting
// binding seeds the backtracking search over the planned WHERE pattern,
// and the first witness stops it.  This is the decision problem of
// Section 7.3.  The seeded searches stay serial — the seed row usually
// prunes the search long before materialization would pay off — and
// only a WHERE pattern wider than the row runtime is materialized, once,
// through plan.Run under o.  A nil b disables accounting.
func ConstructContains(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple, b *sparql.Budget, o plan.Options) (bool, error) {
	pr := plan.Prepare(g, q.Where)
	opt := pr.Pattern()
	sc, scOK := sparql.SchemaFor(opt)
	var wide *sparql.MappingSet // the materialized answer, when !scOK
	for _, tp := range q.Template {
		seed, ok := unifyTemplate(tp, target)
		if !ok {
			continue
		}
		if !scOK {
			if wide == nil {
				rows, err := plan.Run(g, pr, b, o)
				if err != nil {
					return false, err
				}
				wide = rows.MappingSet()
			}
			for _, mu := range wide.Mappings() {
				if produced, ok := mu.Apply(tp); ok && produced == target {
					return true, nil
				}
			}
			continue
		}
		// Encode the seed against the graph dictionary without
		// interning.  Solutions only bind template variables to graph
		// IRIs, so a seed value absent from the dictionary — or a
		// template variable outside the pattern — cannot be witnessed.
		c := sparql.Codec{Schema: sc, Dict: g.Dict()}
		row, ok := c.EncodeLookup(seed)
		if !ok {
			continue
		}
		// ans(Q, G) requires var(tp) ⊆ dom(µ); every emitted solution
		// agrees with the seed on shared slots, so domain coverage alone
		// certifies that µ(tp) is the target.
		tpMask := sc.SlotMask(sparql.Vars(tp))
		done := instrumentSearch(o.Prof, b, "construct-contains")
		s := sparql.NewSearcherBudget(g, sc, b)
		s.Seed(row)
		found := false
		err := s.Search(opt, row.Mask, func(m uint64) bool {
			if tpMask&^m != 0 {
				return true
			}
			found = true
			return false
		})
		if err != nil {
			done(0)
			return false, err
		}
		if found {
			done(1)
			return true, nil
		}
		done(0)
	}
	return false, nil
}

// unifyTemplate matches a template triple against a concrete triple,
// returning the variable bindings (false on a constant mismatch or a
// repeated variable with different values).
func unifyTemplate(tp sparql.TriplePattern, tr rdf.Triple) (sparql.Mapping, bool) {
	mu := make(sparql.Mapping, 3)
	unify := func(v sparql.Value, iri rdf.IRI) bool {
		if !v.IsVar() {
			return v.IRI() == iri
		}
		if prev, ok := mu[v.Var()]; ok {
			return prev == iri
		}
		mu[v.Var()] = iri
		return true
	}
	if unify(tp.S, tr.S) && unify(tp.P, tr.P) && unify(tp.O, tr.O) {
		return mu, true
	}
	return nil, false
}
