// Adaptive chain execution (mid-query re-optimization).
//
// When the whole optimized pattern is an AND chain, the engine does
// not have to commit to the planner's join order: the chain driver
// (runChain) evaluates the chain one operand at a time, compares the
// accumulated row count against the planner's prefix estimates
// (chainCards), and when the observed cardinality drifts past
// ReplanFactor× the estimate it re-orders the *remaining* operands
// against the observed cardinality before continuing.  Estimates are
// exact for leaf scans but join selectivities are only modeled, so a
// mid-chain blow-up (or an unexpectedly empty prefix) is exactly the
// case a static order gets wrong.
//
// The driver runs on the primitives of one sparql.StagedExec (join a
// first pair of triples as the tree evaluator joins an And node,
// evaluate an operand, hash-join, bind-join), where the tree evaluator
// (sparql.EvalRows) would commit the whole DP-ordered chain to a
// plan-time tree no observation can change:
//
//   - each join step is one *stage*: the accumulated prefix is joined
//     with the next operand by hash join, or by bind join when the
//     observed prefix is small enough that per-row index probes beat
//     scanning the operand's full extension (sparql.BindJoinScan,
//     chosen by the engine's one join rule, sparql.BindPays, on the
//     observed prefix and the operand's leaf count);
//   - between stages the driver observes the materialized prefix
//     cardinality at a drift checkpoint (the [est/factor, est·factor]
//     confidence band) and re-plans the remaining operands against
//     observed counts before the next stage;
//   - an empty prefix short-circuits the whole tail: operands that can
//     no longer contribute are never evaluated.
//
// Replans are visible as `replans=N` on the query profile node and
// aggregate into the server's planner_replans counter, and bind probes
// as `bind_probes=N` on the profile's "and" node.
// PlannerOptions.NoReplan disarms the driver entirely, which routes
// the chain to the tree evaluator: the E28 "dp" baseline nsbench
// constructs.
//
// A capped run (Options.Cap: ASK, LIMIT) drives any AND chain, however
// short, through runChainCapped instead: morsels of the first
// operand's rows, bind joins, and a stop at the cap.
package plan

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// adaptiveArmed reports whether the prepared plan carries enough chain
// state for mid-query re-optimization: a v2 plan over an AND chain
// long enough that a drift checkpoint can still reorder ≥2 remaining
// operands.
func (pr Prepared) adaptiveArmed() bool {
	return !pr.popts.Greedy && !pr.popts.NoReplan && len(pr.chain) >= 3 && pr.memo != nil
}

// evalChain runs the prepared AND chain with drift-triggered
// re-planning (profile detail "adaptive"), or under a cap of limit rows
// (detail "capped").  ok = false means the chain's schema exceeds the
// row engine's width and nothing was evaluated (the caller falls back
// to the string algebra, like the other row-engine entry points).
func evalChain(g rdf.Store, pr Prepared, b *sparql.Budget, limit int, prof *obs.Node, span *obs.Span) (*sparql.RowSet, bool, error) {
	x, ok := sparql.NewStagedExec(g, pr.pattern, b)
	if !ok {
		return nil, false, nil
	}
	detail := "adaptive"
	if limit > 0 {
		detail = "capped"
	}
	node := prof.Child("and", detail)
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	var rs *sparql.RowSet
	var err error
	if limit > 0 {
		rs, err = runChainCapped(pr, x, limit, node)
	} else {
		rs, err = runChain(g, pr, x, node, span)
	}
	if node != nil {
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		if err == nil {
			node.AddRowsOut(int64(rs.Len()))
		}
	}
	if err != nil {
		return nil, true, err
	}
	return rs, true, nil
}

// runChain is the chain driver: evaluate operands in the planner's
// order, checkpoint observed cardinality against the prefix estimates,
// re-plan the tail on drift, and pick bind vs hash join per step
// against the observed accumulator size.  The prefix and the operand a
// step consumed hand their arrays back to the evaluation's free list
// as soon as the step has its output.  The plan's memo answers the
// estimates it already holds; a re-plan's new probes count on g.
func runChain(g rdf.Store, pr Prepared, x *sparql.StagedExec, node *obs.Node, span *obs.Span) (*sparql.RowSet, error) {
	factor := pr.popts.replanFactor()
	chain := append([]sparql.Pattern(nil), pr.chain...)
	targets := append([]float64(nil), pr.chainEsts...)
	e := &estimator{g: g, estMemo: pr.memo}

	// A first pair of two triples is joined as the tree evaluator joins
	// an And node: bind on the first one's exact count, else merge or
	// hash.  Any other first operand is evaluated alone, so that the
	// checkpoint below sees its rows before the second operand runs.
	var (
		acc *sparql.RowSet
		err error
		i   = 1
	)
	_, t0 := chain[0].(sparql.TriplePattern)
	if _, t1 := chain[1].(sparql.TriplePattern); t0 && t1 {
		if acc, err = x.JoinFirst(chain[0], chain[1], node); err != nil {
			return nil, err
		}
		i = 2
	} else if acc, err = x.EvalOperand(chain[0], node); err != nil {
		return nil, err
	}
	// accDV tracks the distinct-value bounds of the accumulated prefix
	// so re-planning can estimate remaining joins from the observed
	// cardinality.
	accDV := prefixDV(e, chain[:i], float64(acc.Len()))
	for ; i < len(chain); i++ {
		// Drift checkpoint: the chain is all inner joins, so an empty
		// prefix decides the query — return before evaluating the tail.
		if acc.Len() == 0 {
			if span != nil {
				span.SetAttr("empty_prefix_at", i)
			}
			return acc, nil
		}
		obsCard := float64(acc.Len())
		if est := targets[i-1]; len(chain)-i >= 2 && drifted(obsCard, est, factor) {
			rsp := span.StartChild("replan", "")
			rsp.SetAttr("position", i)
			rsp.SetAttr("observed", obsCard)
			rsp.SetAttr("estimate", est)
			rsp.SetAttr("remaining", len(chain)-i)
			replanTail(e, chain, targets, i, obsCard, accDV)
			rsp.End()
			node.AddReplans(1)
		}
		est := e.estimate(chain[i])
		// The join rule on the OBSERVED cardinality: when the prefix is
		// small relative to the next operand's extension, probing the
		// index per row (bind join) beats scanning and hashing the whole
		// extension.
		if t, isTriple := chain[i].(sparql.TriplePattern); isTriple && sparql.BindPays(obsCard, est) {
			out, err := x.BindJoin(acc, t, node.Child("bindjoin", t.String()))
			if err != nil {
				return nil, err
			}
			acc = step(out, acc)
		} else {
			r, err := x.EvalOperand(chain[i], node)
			if err != nil {
				return nil, err
			}
			out, err := x.Join(acc, r, node)
			if err != nil {
				return nil, err
			}
			acc = step(out, acc, r)
		}
		_, accDV = joinCardInto(float64(acc.Len()), accDV, leafDV(sparql.Vars(chain[i]), est))
	}
	return acc, nil
}

// runChainCapped is the chain driver under a cap of k rows (ASK,
// LIMIT): the first operand's rows go through the remaining operands
// in plan order in morsels of k, 2k, 4k, … rows, and the drive stops
// once k distinct answers exist.  A triple operand is bind-joined with
// every morsel: across all morsels that charges one probe per row that
// reaches it plus its matches, which a hash join of the same rows
// charges too, on top of scanning the operand — so a capped run that
// finds nothing costs no more steps than the full run, give or take
// the full run's merge join of the first pair.  Any other operand is
// evaluated on first use and kept, so every later morsel probes the
// same rows and the same chain index.  Morsels are too small to
// observe a cardinality on, so there is no drift checkpoint.
func runChainCapped(pr Prepared, x *sparql.StagedExec, k int, node *obs.Node) (*sparql.RowSet, error) {
	chain := pr.chain
	operands := make([]*sparql.RowSet, len(chain))
	nodes := make([]*obs.Node, len(chain))
	out := sparql.NewRowSet(x.Schema())
	// drive joins morsel m with chain[i] and hands the result on in
	// windows of at least minWindow rows, so that a stage that fans out
	// is cut up again instead of flooding the rest of the chain.
	var drive func(i int, m *sparql.RowSet) (bool, error)
	drive = func(i int, m *sparql.RowSet) (bool, error) {
		if i == len(chain) {
			for j := 0; j < m.Len() && out.Len() < k; j++ {
				out.AddRow(m.Row(j))
			}
			return out.Len() < k, nil
		}
		var next *sparql.RowSet
		var err error
		if t, isTriple := chain[i].(sparql.TriplePattern); isTriple {
			if nodes[i] == nil && node != nil {
				nodes[i] = node.Child("bindjoin", t.String())
			}
			next, err = x.BindJoin(m, t, nodes[i])
		} else {
			if operands[i] == nil {
				if operands[i], err = x.EvalOperand(chain[i], node); err != nil {
					return false, err
				}
				nodes[i] = node.Child("join", "")
			}
			next, err = x.Probe(m, operands[i], nodes[i])
		}
		if err != nil {
			return false, err
		}
		defer next.Release()
		for lo, size := 0, max(k, minWindow); lo < next.Len(); lo, size = lo+size, 2*size {
			if more, err := drive(i+1, next.Window(lo, min(lo+size, next.Len()))); err != nil || !more {
				return more, err
			}
		}
		return true, nil
	}
	if err := x.Morsels(chain[0], k, node, func(m *sparql.RowSet) (bool, error) { return drive(1, m) }); err != nil {
		return nil, err
	}
	return out, nil
}

// minWindow is the smallest window a capped chain cuts a stage's output
// into: below it, driving the rows on one by one costs more in
// per-join overhead than it can save.
const minWindow = 64

// step ends one join step: the inputs the output is not (a join with
// an empty side returns that side) are released.
func step(out *sparql.RowSet, inputs ...*sparql.RowSet) *sparql.RowSet {
	for _, in := range inputs {
		if in != out {
			in.Release()
		}
	}
	return out
}

// drifted reports whether the observed prefix cardinality left the
// planner's confidence band [est/factor, est·factor] (±1 row of slack
// so tiny prefixes never trigger).
func drifted(obs, est, factor float64) bool {
	return obs > est*factor+1 || obs*factor+1 < est
}

// prefixDV rebuilds the distinct-value bounds of an evaluated prefix,
// capped at the observed cardinality.
func prefixDV(e *estimator, prefix []sparql.Pattern, obs float64) dvMap {
	dv := make(dvMap)
	for _, p := range prefix {
		est := e.estimate(p)
		for _, v := range sparql.Vars(p) {
			if cur, ok := dv[v]; !ok || est < cur {
				dv[v] = est
			}
		}
	}
	for v, d := range dv {
		if d > obs {
			dv[v] = maxf(obs, 1)
		}
	}
	return dv
}

// joinCardInto re-caps dv bounds after a join whose output size is
// already known (observed), merging in the new operand's bounds.
func joinCardInto(obs float64, dvL, dvR dvMap) (float64, dvMap) {
	dv := make(dvMap, len(dvL)+len(dvR))
	for v, d := range dvL {
		dv[v] = d
	}
	for v, d := range dvR {
		if cur, ok := dv[v]; !ok || d < cur {
			dv[v] = d
		}
	}
	for v, d := range dv {
		if d > obs {
			dv[v] = maxf(obs, 1)
		}
	}
	return obs, dv
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// replanTail greedily re-orders chain[i:] against the observed prefix
// cardinality: at each step it takes the operand whose estimated join
// output with the current accumulator is smallest — grown by the most
// selective probed pair with an operand already joined, as the DP
// grows a prefix (extendCard; cross products cost their full product,
// so connected operands win naturally) — then rewrites the remaining
// prefix targets so the next checkpoints compare against the new plan.
// The chain's pairs were probed when the plan was prepared, so the
// memo answers them.
func replanTail(e *estimator, chain []sparql.Pattern, targets []float64, i int, obs float64, accDV dvMap) {
	cands := buildCands(e, chain)
	pairs := e.pairSizes(cands)
	members := identityOrder(len(chain))[:i]
	used := make([]bool, len(chain))
	card, dv := obs, accDV
	for k := i; k < len(chain); k++ {
		best, bestOut := -1, 0.0
		var bestDV dvMap
		for j := i; j < len(cands); j++ {
			if used[j] {
				continue
			}
			out, ndv := extendCard(cands, pairs, members, card, dv, j)
			if best == -1 || out < bestOut || (out == bestOut && cands[j].est < cands[best].est) {
				best, bestOut, bestDV = j, out, ndv
			}
		}
		used[best] = true
		members = append(members, best)
		chain[k] = cands[best].p
		card, dv = bestOut, bestDV
		targets[k] = card
	}
}
