// Dynamic-programming join ordering for AND chains (planner v2).
//
// The chain's operands split into variable-connected components; each
// component of at most DPMaxPatterns operands is ordered by an exact
// dynamic program over its *connected subsets* (the DPccp essence:
// subplans that would be cross products are never enumerated), larger
// components fall back to the v1 greedy heuristic.  Plans are
// left-deep — the row engine folds a chain left to right, and the
// adaptive executor re-plans a left-deep tail — and the cost metric is
// C_out (see cost.go) over pair-probed cardinalities.  Which join runs
// at each step is the engine's to decide (sparql.BindPays), so the DP
// prices no join strategy.
package plan

import (
	"math"
	"sort"

	"repro/internal/sparql"
)

// DefaultDPMaxPatterns is the component size above which the DP
// (2^n subsets) yields to the greedy heuristic.
const DefaultDPMaxPatterns = 12

// DefaultReplanFactor is the observed/estimated cardinality ratio
// beyond which the adaptive executor re-plans the remaining chain.
const DefaultReplanFactor = 4.0

// cand is one chain operand with its planning metadata.
type cand struct {
	p    sparql.Pattern
	est  float64
	vars []sparql.Var
	vset map[sparql.Var]struct{}
}

func buildCands(e *estimator, ops []sparql.Pattern) []cand {
	cands := make([]cand, len(ops))
	for i, op := range ops {
		vars := sparql.Vars(op)
		vset := make(map[sparql.Var]struct{}, len(vars))
		for _, v := range vars {
			vset[v] = struct{}{}
		}
		cands[i] = cand{p: op, est: e.estimate(op), vars: vars, vset: vset}
	}
	return cands
}

func (c *cand) sharesVar(other *cand) bool {
	for v := range c.vset {
		if _, ok := other.vset[v]; ok {
			return true
		}
	}
	return false
}

// chainComponents partitions operand indices into variable-connected
// components, each listed in original operand order; the components
// are ordered by (smallest member estimate, original position), which
// reproduces the v1 greedy's "exhaust one component, then jump to the
// globally smallest remaining operand" sequencing.
func chainComponents(cands []cand) [][]int {
	n := len(cands)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		id := len(comps)
		queue := []int{i}
		comp[i] = id
		var members []int
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			members = append(members, j)
			for k := 0; k < n; k++ {
				if comp[k] < 0 && cands[j].sharesVar(&cands[k]) {
					comp[k] = id
					queue = append(queue, k)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	sort.SliceStable(comps, func(a, b int) bool {
		return minEst(cands, comps[a]) < minEst(cands, comps[b])
	})
	return comps
}

func minEst(cands []cand, members []int) float64 {
	m := math.Inf(1)
	for _, i := range members {
		if cands[i].est < m {
			m = cands[i].est
		}
	}
	return m
}

// greedyOrderComponent is the v1 heuristic restricted to one
// component: start from the smallest estimate, then repeatedly take
// the smallest-estimate operand connected to the already-bound
// variables (the component is connected, so one always exists).
func greedyOrderComponent(cands []cand, members []int) []int {
	idx := append([]int(nil), members...)
	sort.SliceStable(idx, func(a, b int) bool { return cands[idx[a]].est < cands[idx[b]].est })
	used := make(map[int]bool, len(idx))
	bound := make(map[sparql.Var]struct{})
	order := make([]int, 0, len(idx))
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for v := range cands[i].vset {
			bound[v] = struct{}{}
		}
	}
	take(idx[0])
	for len(order) < len(idx) {
		best, bestConnected := -1, false
		for _, i := range idx {
			if used[i] {
				continue
			}
			connected := false
			for v := range cands[i].vset {
				if _, ok := bound[v]; ok {
					connected = true
					break
				}
			}
			if best == -1 || (connected && !bestConnected) ||
				(connected == bestConnected && cands[i].est < cands[best].est) {
				best, bestConnected = i, connected
			}
		}
		take(best)
	}
	return order
}

// dpEntry is one DP state: the best-known left-deep plan for a
// connected subset of the component.
type dpEntry struct {
	cost  float64
	card  float64
	dv    dvMap
	vars  map[sparql.Var]struct{}
	order []int // operand indices, in join order
}

// dpOrderComponent finds the minimum-C_out left-deep order of one
// connected component by DP over its connected subsets, growing each
// subset through its most selective probed pair (see extendCard).
// Component positions are pre-sorted by estimate so that equal-cost
// plans resolve toward starting with the smaller scan (deterministic,
// and it preserves the v1 ordering on two-operand chains, where every
// order has the same C_out).
func dpOrderComponent(cands []cand, pairs [][]float64, members []int) []int {
	n := len(members)
	if n == 1 {
		return members
	}
	pos := append([]int(nil), members...)
	sort.SliceStable(pos, func(a, b int) bool { return cands[pos[a]].est < cands[pos[b]].est })

	entries := make([]*dpEntry, 1<<n)
	for i := 0; i < n; i++ {
		c := &cands[pos[i]]
		entries[1<<i] = &dpEntry{
			cost:  c.est,
			card:  c.est,
			dv:    leafDV(c.vars, c.est),
			vars:  c.vset,
			order: []int{pos[i]},
		}
	}
	full := (1 << n) - 1
	for mask := 1; mask <= full; mask++ {
		e := entries[mask]
		if e == nil || mask == full {
			continue
		}
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			cj := &cands[pos[j]]
			connected := false
			for v := range cj.vset {
				if _, ok := e.vars[v]; ok {
					connected = true
					break
				}
			}
			if !connected {
				// Connected subsets only: within one component, any
				// cross-product subplan is dominated by a connected order.
				continue
			}
			card, dv := extendCard(cands, pairs, e.order, e.card, e.dv, pos[j])
			cost := e.cost + cj.est + card
			next := mask | 1<<j
			if cur := entries[next]; cur == nil || cost < cur.cost-1e-9 {
				vars := make(map[sparql.Var]struct{}, len(e.vars)+len(cj.vset))
				for v := range e.vars {
					vars[v] = struct{}{}
				}
				for v := range cj.vset {
					vars[v] = struct{}{}
				}
				order := make([]int, len(e.order)+1)
				copy(order, e.order)
				order[len(e.order)] = pos[j]
				entries[next] = &dpEntry{cost: cost, card: card, dv: dv, vars: vars, order: order}
			}
		}
	}
	best := entries[full]
	if best == nil {
		// Unreachable for a connected component; fail safe to greedy.
		return greedyOrderComponent(cands, members)
	}
	return best.order
}

// chainCards returns the estimated cardinality after each prefix of
// the ordered chain, each prefix grown by its most selective probed
// pair (extendCard; cross products across component boundaries
// multiply).  These are the targets the adaptive executor compares
// observed rows against.
func chainCards(cands []cand, pairs [][]float64, order []int) []float64 {
	out := make([]float64, len(order))
	var card float64
	var dv dvMap
	for i, idx := range order {
		c := &cands[idx]
		if i == 0 {
			card, dv = c.est, leafDV(c.vars, c.est)
		} else {
			card, dv = extendCard(cands, pairs, order[:i], card, dv, idx)
		}
		out[i] = card
	}
	return out
}
