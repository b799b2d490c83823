// Package plan is a query planner and optimized evaluator for
// NS-SPARQL.  It is semantics-preserving engineering on top of the
// reference evaluator of internal/sparql (which stays the oracle in
// differential tests):
//
//   - AND chains are flattened, split into variable-connected
//     components, and each component is ordered by a dynamic program
//     over its connected subsets minimizing the C_out cost metric fed
//     by exact index cardinalities and index-probed pair sizes (see
//     cost.go and dp.go); components beyond DPMaxPatterns — and the v1
//     ablation baseline (PlannerOptions.Greedy) — use the greedy
//     smallest-connected-estimate heuristic;
//   - the join at each node is not planned: the row engine picks bind,
//     merge or hash with one rule on the rows it sees
//     (sparql.BindPays), and Explain reports what that rule picks on
//     the leaf counts;
//   - long AND chains run under the adaptive chain driver
//     (adaptive.go): the serial path evaluates operand by operand and
//     re-orders the remaining operands mid-query when observed
//     cardinalities drift past ReplanFactor× the estimate; the
//     parallel path runs the same driver morsel-style (staged.go),
//     fanning each join stage out across the worker pool and
//     re-planning between stages;
//   - conjunctive FILTER conditions are split and pushed down to the
//     earliest operand that certainly binds their variables;
//   - joins, differences and left-outer joins run hash-bucketed on the
//     shared always-bound variables (sparql.JoinHash and friends);
//   - the optimized pattern is evaluated on the ID-native row engine
//     (sparql.EvalRows): dictionary-encoded rows with presence bitsets,
//     hash joins keyed on always-bound slot masks, and the
//     mask-bucketed NS algorithm.  Patterns wider than
//     sparql.MaxSchemaVars fall back to the string algebra
//     (sparql.EvalBudget).
//
// Prepare (or PrepareOpts) plans and Run executes: Run is the one exit
// every evaluation goes through, returning the answer in ID form.
// These choices are ablated in the E20, E28 and E30 experiments.
package plan

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// Options tunes the evaluator.  The zero value is the production
// default: the parallel row engine with one worker per CPU, engaging
// only when the planner's cardinality estimate says the query is big
// enough to amortize the fan-out.
type Options struct {
	// Parallel is the worker count for the parallel row engine
	// (including the calling goroutine): 0 means runtime.GOMAXPROCS(0),
	// 1 forces the serial engine.
	Parallel int
	// MinParallelEstimate is the planner's estimated result
	// cardinality below which evaluation stays serial even when
	// Parallel > 1 (goroutine handoff would dominate on small
	// queries).  0 means DefaultMinParallelEstimate; set it negative
	// to parallelize unconditionally.
	MinParallelEstimate float64
	// MinPartition is passed through to the row engine's partitioned
	// operators (0 = sparql.DefaultMinPartition).
	MinPartition int
	// Prof, when non-nil, collects a per-query execution profile: the
	// evaluator attaches one obs child node per operator under it (see
	// internal/obs and sparql.EvalRows).  The string-algebra
	// fallback for patterns wider than sparql.MaxSchemaVars records
	// only root-level totals.  A nil Prof disables all instrumentation
	// at the cost of one nil check per operator node.
	Prof *obs.Node
	// Cap, when positive, asks for any Cap rows of the answer instead
	// of all of it: ASK is Cap 1, LIMIT k is Cap k.  A capped run is
	// serial and stops early where it can — the chain driver drives
	// the first operand's rows through the chain in growing morsels and
	// stops at Cap answers (runChainCapped), UNION skips its right side
	// once the left one fills the cap — and materialises where it must
	// (OPT, NS, FILTER).
	Cap int
	// Trace, when non-nil, is the live execution span of the query's
	// distributed trace: the adaptive chain executor records each
	// mid-query replan checkpoint as a child span (position, observed
	// vs estimated cardinality), so re-optimizations survive the
	// request and show up in /debug/traces.  A nil Trace is a no-op.
	Trace *obs.Span
}

// DefaultMinParallelEstimate is the default serial/parallel cutover
// estimate: queries the planner expects to stay under this many
// intermediate rows are evaluated serially.
const DefaultMinParallelEstimate = 256

func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o Options) minEstimate() float64 {
	if o.MinParallelEstimate == 0 {
		return DefaultMinParallelEstimate
	}
	return o.MinParallelEstimate
}

// Prepared is an optimized, ready-to-run query plan: the rewritten
// pattern, the planner's cardinality estimate for the serial/parallel
// cutover, the recorded plan (Explain), and — for AND chains — the flattened operand order plus prefix estimates the
// adaptive executor checkpoints against.
//
// A Prepared plan is correct on any graph contents: its rewrites are
// equivalences, and the join order and engine routing it carries change only what evaluation costs, never what it returns
// (⟦P⟧_G depends on P and G alone).  It is optimal only near the index
// counts (CountMatch) it was prepared with.  Those leaf counts are kept
// on the plan, and Drifted re-counts them: a cache keyed by query text,
// as nsserve's is, re-prepares only when Drifted says the statistics
// have really moved.  Explain's estimates stay the prepare-time counts
// for as long as the plan is served.
type Prepared struct {
	pattern sparql.Pattern
	est     float64
	popts   PlannerOptions
	explain *Explain
	// memo is the estimator's memo without its store (see estimator).
	memo *estMemo
	// chain is the ordered flat operand list when the whole pattern is
	// an AND chain (components concatenated), nil otherwise;
	// chainEsts[i] is the estimated cardinality after joining
	// chain[:i+1].
	chain     []sparql.Pattern
	chainEsts []float64
	// leaves are the exact leaf counts the estimator probed while
	// preparing: the statistics the plan was chosen on.  Immutable.
	leaves []leafCount
}

// Pattern returns the optimized pattern the plan will evaluate.
func (pr Prepared) Pattern() sparql.Pattern { return pr.pattern }

// Explain returns the recorded plan (nil only for a zero Prepared).
func (pr Prepared) Explain() *Explain { return pr.explain }

// Prepare optimizes p for g under the default planner options: the
// graph-dependent (and therefore cacheable) half of evaluation, Run
// being the other.
func Prepare(g rdf.Store, p sparql.Pattern) Prepared {
	return PrepareOpts(g, p, PlannerOptions{})
}

// PrepareOpts is Prepare with explicit planner options: the greedy and
// no-replan ablation baselines that nsbench (E28, E30) and the tests
// construct, the DP cutoff and the re-plan factor.
func PrepareOpts(g rdf.Store, p sparql.Pattern, po PlannerOptions) Prepared {
	pc := &planCtx{g: g, e: newEstimator(g), po: po}
	pc.e.leavesOnly = po.Greedy
	opt := pc.optimize(sparql.SimplifyPattern(p))
	pr := Prepared{pattern: opt, popts: po, memo: pc.e.estMemo}
	if _, ok := opt.(sparql.And); ok {
		// andOperands of the rebuilt tree recovers the planner's full
		// chain order (left-deep within components, concatenated across).
		pr.chain = andOperands(opt)
		cands := buildCands(pc.e, pr.chain)
		pr.chainEsts = chainCards(cands, pc.e.pairSizes(cands), identityOrder(len(pr.chain)))
	}
	pr.explain = buildExplain(pc.e, opt, po, pr.adaptiveArmed())
	pr.est = pr.explain.Estimate
	pr.leaves = pc.e.leafCounts()
	return pr
}

// Drifted reports whether the plan's statistics have moved on g: it
// counts every leaf the plan was prepared on again and reports whether
// any count left the band [est/ReplanFactor, est·ReplanFactor] — the
// predicate and factor the chain driver re-plans on mid-query.  Either
// way the plan stays correct on g; a drifted one is only no longer
// likely to be cheap.
func (pr Prepared) Drifted(g rdf.Store) bool {
	factor := pr.popts.replanFactor()
	for _, l := range pr.leaves {
		if drifted(countLeaf(g, l.t), l.n, factor) {
			return true
		}
	}
	return false
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// Run executes a Prepared plan and returns the answer in ID form — the
// engine's single exit.  Row-engine answers share g's dictionary (read
// them only while g may be read); a pattern wider than
// sparql.MaxSchemaVars runs on the string algebra and comes back laid
// out the same way (sparql.RowsOf).  Servers encode the rows directly
// (exec.ResultWriter); library callers materialise them with
// Rows.MappingSet or Rows.Graph.  A nil budget disables accounting.
func Run(g rdf.Store, pr Prepared, b *sparql.Budget, o Options) (sparql.Rows, error) {
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	opt := pr.pattern
	var (
		rs  *sparql.RowSet
		ok  bool
		err error
	)
	workers := o.workers()
	if pr.est < o.minEstimate() || o.Cap > 0 {
		workers = 1
	}
	if pr.adaptiveArmed() || (o.Cap > 0 && len(pr.chain) >= 2) {
		// The chain driver: operand by operand on one worker; with more,
		// morsel-style staged fan-out that observes materialized prefix
		// cardinalities and re-plans the tail between stages (staged.go).
		// A capped run drives any AND chain, however short, in morsels.
		rs, ok, err = evalChain(g, pr, b, workers, o.MinPartition, o.Cap, o.Prof, o.Trace)
	} else {
		// The tree evaluator: non-chain plans and the Greedy and NoReplan
		// ablations.  With more than one worker the whole plan fans out
		// at once — the static parallel tree, with no drift checkpoint.
		rs, ok, err = sparql.EvalRows(g, opt, b, sparql.ParOptions{
			Workers:      workers,
			MinPartition: o.MinPartition,
			Prof:         o.Prof,
			Cap:          o.Cap,
		})
	}
	recordRoot := func(resultRows int) {
		if o.Prof == nil {
			return
		}
		o.Prof.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		o.Prof.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		o.Prof.AddRowsOut(int64(resultRows))
	}
	var rows sparql.Rows
	if err == nil && ok {
		rows = rs.Rows(g.Dict())
	} else if err == nil {
		var ms *sparql.MappingSet
		if ms, err = sparql.EvalBudget(g, opt, b); err == nil { // wider than MaxSchemaVars
			if o.Cap > 0 && ms.Len() > o.Cap {
				ms = sparql.NewMappingSet(ms.Mappings()[:o.Cap]...)
			}
			rows = sparql.RowsOf(ms)
		}
	}
	if err == nil {
		err = b.AddRows(rows.Len())
	}
	if err != nil {
		recordRoot(0)
		return sparql.Rows{}, err
	}
	recordRoot(rows.Len())
	return rows, nil
}

// Optimize rewrites the pattern into a semantically equal pattern with
// pushed-down filters and reordered AND chains.  The rewriting uses
// only equivalences that hold for arbitrary patterns:
//
//	AND is associative and commutative;
//	(P1 AND P2) FILTER R ≡ (P1 FILTER R) AND P2
//	    when var(R) ⊆ cb(P1) (the certainly-bound variables);
//	R1 ∧ R2 splits into two FILTER applications.
func Optimize(g rdf.Store, p sparql.Pattern) sparql.Pattern {
	pc := &planCtx{g: g, e: newEstimator(g)}
	return pc.optimize(sparql.SimplifyPattern(p))
}

// planCtx threads the shared estimator and planner options through one
// optimization pass, so a k-pattern query costs k leaf counts plus its
// pair probes no matter how many candidate orders the DP scores.
type planCtx struct {
	g  rdf.Store
	e  *estimator
	po PlannerOptions
}

func (pc *planCtx) optimize(p sparql.Pattern) sparql.Pattern {
	switch q := p.(type) {
	case sparql.TriplePattern:
		return q
	case sparql.And:
		return pc.optimizeAndChain(q)
	case sparql.Union:
		return sparql.Union{L: pc.optimize(q.L), R: pc.optimize(q.R)}
	case sparql.Opt:
		return sparql.Opt{L: pc.optimize(q.L), R: pc.optimize(q.R)}
	case sparql.Filter:
		return pc.optimizeFilter(q)
	case sparql.Select:
		return sparql.Select{Vars: q.Vars, P: pc.optimize(q.P)}
	case sparql.NS:
		return sparql.NS{P: pc.optimize(q.P)}
	default:
		// Unknown operator: leave it untouched (optimization is always
		// allowed to be the identity) and let the evaluator report a
		// typed sparql.ErrUnsupportedPattern instead of panicking here.
		return p
	}
}

// andOperands flattens an AND chain.
func andOperands(p sparql.Pattern) []sparql.Pattern {
	if a, ok := p.(sparql.And); ok {
		return append(andOperands(a.L), andOperands(a.R)...)
	}
	return []sparql.Pattern{p}
}

// optimizeAndChain orders a flattened AND chain: operands split into
// variable-connected components (ordered by smallest member estimate,
// reproducing the v1 greedy's global sequencing), and each component
// is ordered by the connected-subset DP (dp.go) — or the v1 greedy
// heuristic when PlannerOptions.Greedy is set or the component exceeds
// the DP cutoff.
func (pc *planCtx) optimizeAndChain(a sparql.And) sparql.Pattern {
	ops := andOperands(a)
	for i, op := range ops {
		ops[i] = pc.optimize(op)
	}
	cands := buildCands(pc.e, ops)
	pairs := pc.e.pairSizes(cands)
	comps := chainComponents(cands)
	ordered := make([]sparql.Pattern, 0, len(cands))
	starts := make([]int, 0, len(comps))
	for _, members := range comps {
		starts = append(starts, len(ordered))
		var order []int
		if pc.po.Greedy || len(members) > pc.po.dpMax() {
			order = greedyOrderComponent(cands, members)
		} else {
			order = dpOrderComponent(cands, pairs, members)
		}
		for _, i := range order {
			ordered = append(ordered, cands[i].p)
		}
	}
	return andComponents(ordered, starts)
}

// andComponents rebuilds the AND tree from the greedily ordered chain:
// each connected component keeps its left-deep greedy order (good join
// ordering), and the variable-disjoint components combine through a
// balanced tree of cross products.  AND is associative and commutative,
// so the reshaping is an equivalence; its point is structural — the
// parallel engine fans out the operands of every AND node, and a
// balanced tree over independent components exposes them as concurrent
// sub-problems instead of hiding them down one left spine.
func andComponents(ordered []sparql.Pattern, starts []int) sparql.Pattern {
	if len(starts) <= 1 {
		return sparql.AndOf(ordered...)
	}
	parts := make([]sparql.Pattern, 0, len(starts))
	for i, lo := range starts {
		hi := len(ordered)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		parts = append(parts, sparql.AndOf(ordered[lo:hi]...))
	}
	return balancedAnd(parts)
}

// balancedAnd folds patterns into a balanced binary AND tree.
func balancedAnd(parts []sparql.Pattern) sparql.Pattern {
	switch len(parts) {
	case 1:
		return parts[0]
	case 2:
		return sparql.And{L: parts[0], R: parts[1]}
	}
	mid := len(parts) / 2
	return sparql.And{L: balancedAnd(parts[:mid]), R: balancedAnd(parts[mid:])}
}

func (pc *planCtx) optimizeFilter(f sparql.Filter) sparql.Pattern {
	body := pc.optimize(f.P)
	conjuncts := splitConjuncts(f.Cond)
	var remaining []sparql.Condition
	for _, c := range conjuncts {
		if pushed, ok := pushFilter(body, c); ok {
			body = pushed
		} else {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		return body
	}
	return sparql.Filter{P: body, Cond: sparql.ConjoinConds(remaining...)}
}

func splitConjuncts(c sparql.Condition) []sparql.Condition {
	if a, ok := c.(sparql.AndCond); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []sparql.Condition{c}
}

// pushFilter tries to push a single conjunct into an operand of an AND
// chain whose certainly-bound variables cover it.  It reports whether
// the push happened.
func pushFilter(p sparql.Pattern, cond sparql.Condition) (sparql.Pattern, bool) {
	a, ok := p.(sparql.And)
	if !ok {
		return p, false
	}
	vars := cond.Vars(nil)
	covered := func(q sparql.Pattern) bool {
		cb := transform.CertainlyBound(q)
		for _, v := range vars {
			if _, ok := cb[v]; !ok {
				return false
			}
		}
		return true
	}
	ops := andOperands(a)
	for i, op := range ops {
		if covered(op) {
			// Try to push deeper first.
			if deeper, ok := pushFilter(op, cond); ok {
				ops[i] = deeper
			} else {
				ops[i] = sparql.Filter{P: op, Cond: cond}
			}
			return sparql.AndOf(ops...), true
		}
	}
	return p, false
}

// Estimate returns a rough upper estimate of |⟦P⟧_G| used for join
// ordering.  Triple patterns use exact index counts; operators combine
// estimates structurally.  (The formulas live on the memoizing
// estimator in cost.go; this entry point builds a throwaway memo.)
func Estimate(g rdf.Store, p sparql.Pattern) float64 {
	return newEstimator(g).estimate(p)
}
