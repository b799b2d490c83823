// Package exec is a backtracking executor for NS-SPARQL with early
// termination: Ask decides whether a pattern has any solution and
// Limit returns the first k solutions, both without materializing the
// full answer set when they can avoid it.
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
// sub-patterns under them fall back to the reference evaluator; Ask
// and Limit still terminate early at the outer level.  Patterns wider
// than sparql.MaxSchemaVars fall back to materializing the reference
// answer set.
package exec

import (
	"context"
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
// tree; materializing fallbacks go through plan.EvalOpts, which builds
// the full tree.  A nil prof costs one nil check.
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

// Ask reports whether ⟦P⟧_G is non-empty, stopping at the first
// solution found.  Ungoverned legacy entry point; servers should use
// AskCtx or AskBudget.
func Ask(g rdf.Store, p sparql.Pattern) bool {
	found, _ := AskBudget(g, p, nil)
	return found
}

// AskCtx is Ask bounded by a context.
func AskCtx(ctx context.Context, g rdf.Store, p sparql.Pattern) (bool, error) {
	return AskBudget(g, p, sparql.NewBudget(ctx))
}

// AskBudget is Ask under a resource governor: the backtracking search
// charges the budget per index probe and aborts with the budget's
// typed error the moment the governor trips.
func AskBudget(g rdf.Store, p sparql.Pattern, b *sparql.Budget) (bool, error) {
	return AskOpts(g, p, b, plan.Options{})
}

// AskOpts is AskBudget with planner options.  Monotone patterns keep
// the early-terminating backtracking search; patterns that force full
// materialization anyway — a non-monotone (OPT/NS) root, or a schema
// wider than the row runtime — are routed through the planner's
// (possibly parallel) row evaluator instead of the serial reference
// evaluator.
func AskOpts(g rdf.Store, p sparql.Pattern, b *sparql.Budget, o plan.Options) (bool, error) {
	return AskPreparedOpts(g, plan.Prepare(g, p), b, o)
}

// AskPreparedOpts is AskOpts on an already-prepared plan, so servers
// can run ASK through their plan cache without re-optimizing.
func AskPreparedOpts(g rdf.Store, pr plan.Prepared, b *sparql.Budget, o plan.Options) (bool, error) {
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
// k < 0), stopping the search as soon as k are found.  Ungoverned
// legacy entry point; servers should use LimitCtx or LimitBudget.
func Limit(g rdf.Store, p sparql.Pattern, k int) *sparql.MappingSet {
	out, err := LimitBudget(g, p, k, nil)
	if err != nil {
		return sparql.NewMappingSet()
	}
	return out
}

// LimitCtx is Limit bounded by a context.
func LimitCtx(ctx context.Context, g rdf.Store, p sparql.Pattern, k int) (*sparql.MappingSet, error) {
	return LimitBudget(g, p, k, sparql.NewBudget(ctx))
}

// LimitBudget is Limit under a resource governor.  Each returned
// solution also charges the budget's row limit, so MaxRows bounds the
// result set even for k < 0.
func LimitBudget(g rdf.Store, p sparql.Pattern, k int, b *sparql.Budget) (*sparql.MappingSet, error) {
	return LimitOpts(g, p, k, b, plan.Options{})
}

// LimitOpts is LimitBudget with planner options; like AskOpts it sends
// the materializing cases through the planner's row evaluator.
func LimitOpts(g rdf.Store, p sparql.Pattern, k int, b *sparql.Budget, o plan.Options) (*sparql.MappingSet, error) {
	out := sparql.NewMappingSet()
	if k == 0 {
		return out, nil
	}
	opt := plan.Optimize(g, p)
	sc, ok := sparql.SchemaFor(opt)
	if !ok || materializes(opt) {
		ms, err := plan.EvalOpts(g, p, b, o)
		if err != nil {
			return nil, err
		}
		for _, mu := range ms.Mappings() {
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
// binding seeds the backtracking search, and the first witness stops
// it.  This is the decision problem of Section 7.3.  Ungoverned legacy
// entry point; servers should use ConstructContainsCtx or
// ConstructContainsBudget.
func ConstructContains(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple) bool {
	found, _ := ConstructContainsBudget(g, q, target, nil)
	return found
}

// ConstructContainsCtx is ConstructContains bounded by a context.
func ConstructContainsCtx(ctx context.Context, g rdf.Store, q sparql.ConstructQuery, target rdf.Triple) (bool, error) {
	return ConstructContainsBudget(g, q, target, sparql.NewBudget(ctx))
}

// ConstructContainsBudget is ConstructContains under a resource
// governor.
func ConstructContainsBudget(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple, b *sparql.Budget) (bool, error) {
	return ConstructContainsOpts(g, q, target, b, plan.Options{})
}

// ConstructContainsOpts is ConstructContainsBudget with planner
// options for the materializing fallback.  The seeded searches keep
// the serial early-terminating path: the seed row usually prunes the
// search long before materialization would pay off.
func ConstructContainsOpts(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple, b *sparql.Budget, o plan.Options) (bool, error) {
	opt := plan.Optimize(g, q.Where)
	sc, scOK := sparql.SchemaFor(opt)
	for _, tp := range q.Template {
		seed, ok := unifyTemplate(tp, target)
		if !ok {
			continue
		}
		if !scOK {
			hit, err := containsMaterialized(g, q.Where, tp, target, b, o)
			if err != nil {
				return false, err
			}
			if hit {
				return true, nil
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

// containsMaterialized is the wide-schema fallback: materialize the
// answers and apply the template.
func containsMaterialized(g rdf.Store, where sparql.Pattern, tp sparql.TriplePattern, target rdf.Triple, b *sparql.Budget, o plan.Options) (bool, error) {
	ms, err := plan.EvalOpts(g, where, b, o)
	if err != nil {
		return false, err
	}
	for _, mu := range ms.Mappings() {
		if produced, ok := mu.Apply(tp); ok && produced == target {
			return true, nil
		}
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
