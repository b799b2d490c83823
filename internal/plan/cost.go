// Cost model of planner v2.  The sorted permutation store answers
// exact pattern cardinalities in O(log n) (rdf.Store.CountMatch), so
// leaf estimates are exact; join estimates combine them with
// distinct-value upper bounds in the classic System-R style:
//
//	|L ⋈ R| ≈ |L|·|R| · ∏_{v ∈ var(L)∩var(R)} 1 / max(dv_L(v), dv_R(v))
//
// where dv_X(v) is an upper bound on the distinct values v takes in X
// (a leaf binds at most |X| distinct values per variable; a join keeps
// the smaller side's bound, capped by the result cardinality).  The
// chain cost metric is C_out: the sum of leaf scan costs plus every
// intermediate join cardinality — the quantity the DP ordering
// minimizes and the re-optimizer re-checks against observed rows.
//
// The estimator memoizes every index probe, so preparing a k-pattern
// query costs O(k) CountMatch calls no matter how many orders the DP
// considers (the probe-count test pins this).
package plan

import (
	"math"
	"sync"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// estimator is a memoizing cardinality oracle: a store to probe and
// the memo the probes fill.  Triple-pattern counts come from the exact
// sorted indexes and are memoized by pattern value; composite
// estimates are memoized by pattern text.  A Prepared plan keeps the
// memo but not the store: its estimates stay the counts it was
// prepared on (correct plans, possibly not optimal ones) until
// Prepared.Drifted calls for a new Prepare, and the chain driver's
// re-plan probes go to the store Run is given, never to the one the
// plan was prepared on — a cached plan pins no store.
type estimator struct {
	g rdf.Store
	*estMemo
}

// estMemo is the estimator's memo.  The mutex makes it safe for the
// adaptive executor to re-plan concurrently running queries that
// share one cached plan.
type estMemo struct {
	mu      sync.Mutex
	triples map[sparql.TriplePattern]float64
	comps   map[string]float64
	probes  int
}

func newEstimator(g rdf.Store) *estimator {
	return &estimator{g: g, estMemo: &estMemo{
		triples: make(map[sparql.TriplePattern]float64),
		comps:   make(map[string]float64),
	}}
}

// Probes returns how many CountMatch index probes the estimator has
// issued (memo misses only).
func (e *estimator) Probes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.probes
}

// tripleCount returns |⟦t⟧_G| (ignoring repeated-variable filtering,
// which only lowers it): an exact index count, memoized.
func (e *estimator) tripleCount(t sparql.TriplePattern) float64 {
	e.mu.Lock()
	if c, ok := e.triples[t]; ok {
		e.mu.Unlock()
		return c
	}
	e.probes++
	e.mu.Unlock()
	c := countLeaf(e.g, t)
	e.mu.Lock()
	e.triples[t] = c
	e.mu.Unlock()
	return c
}

// leafCount is one probed triple-pattern count.
type leafCount struct {
	t sparql.TriplePattern
	n float64
}

// leafCounts snapshots the triple-pattern counts probed so far.
func (e *estimator) leafCounts() []leafCount {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]leafCount, 0, len(e.triples))
	for t, n := range e.triples {
		out = append(out, leafCount{t: t, n: n})
	}
	return out
}

// countLeaf is one exact index count of a triple pattern.
func countLeaf(g rdf.Store, t sparql.TriplePattern) float64 {
	var s, p, o *rdf.IRI
	if !t.S.IsVar() {
		i := t.S.IRI()
		s = &i
	}
	if !t.P.IsVar() {
		i := t.P.IRI()
		p = &i
	}
	if !t.O.IsVar() {
		i := t.O.IRI()
		o = &i
	}
	return float64(g.CountMatch(s, p, o))
}

// estimate mirrors the exported Estimate's structural formulas, with
// memoization on top (identical values, O(k) probes).
func (e *estimator) estimate(p sparql.Pattern) float64 {
	if t, ok := p.(sparql.TriplePattern); ok {
		return e.tripleCount(t)
	}
	key := p.String()
	e.mu.Lock()
	if c, ok := e.comps[key]; ok {
		e.mu.Unlock()
		return c
	}
	e.mu.Unlock()
	var c float64
	switch q := p.(type) {
	case sparql.And:
		l, r := e.estimate(q.L), e.estimate(q.R)
		// Crude: assume the join keeps the smaller side's cardinality
		// scaled by a fan-out of the larger's density.
		if l < r {
			c = l * (1 + r/float64(e.g.Len()+1))
		} else {
			c = r * (1 + l/float64(e.g.Len()+1))
		}
	case sparql.Union:
		c = e.estimate(q.L) + e.estimate(q.R)
	case sparql.Opt:
		c = e.estimate(q.L) * 1.5
	case sparql.Filter:
		c = e.estimate(q.P) / 2
	case sparql.Select:
		c = e.estimate(q.P)
	case sparql.NS:
		c = e.estimate(q.P)
	default:
		// Unknown operator: assume the worst (whole-graph cardinality)
		// rather than crashing the planner on a malformed plan.
		c = float64(e.g.Len() + 1)
	}
	e.mu.Lock()
	e.comps[key] = c
	e.mu.Unlock()
	return c
}

// dvMap is the per-variable distinct-value upper bound of one
// (sub-)plan.
type dvMap map[sparql.Var]float64

// leafDV builds the distinct-value bounds of a chain operand: each of
// its variables takes at most |operand| distinct values.
func leafDV(vars []sparql.Var, card float64) dvMap {
	dv := make(dvMap, len(vars))
	for _, v := range vars {
		dv[v] = math.Max(card, 1)
	}
	return dv
}

// joinCard estimates |L ⋈ R| and the joined plan's distinct-value
// bounds.  Operands with no shared variable are a cross product.
func joinCard(cardL, cardR float64, dvL, dvR dvMap) (float64, dvMap) {
	out := cardL * cardR
	for v, dl := range dvL {
		if dr, ok := dvR[v]; ok {
			out /= math.Max(math.Max(dl, dr), 1)
		}
	}
	dv := make(dvMap, len(dvL)+len(dvR))
	for v, dl := range dvL {
		if dr, ok := dvR[v]; ok {
			dv[v] = math.Min(dl, dr)
		} else {
			dv[v] = dl
		}
	}
	for v, dr := range dvR {
		if _, ok := dvL[v]; !ok {
			dv[v] = dr
		}
	}
	for v, d := range dv {
		if d > out {
			dv[v] = math.Max(out, 1)
		}
	}
	return out, dv
}

// hashCostFactor weights the hash-table build against a plain scan of
// the same rows (hashing, collision chains, allocation).
const hashCostFactor = 1.2

// hashJoinCost models JoinB: scan both sides, build a chain index on
// the smaller, probe with the larger.
func hashJoinCost(nl, nr float64) float64 {
	return nl + nr + hashCostFactor*math.Min(nl, nr) + math.Max(nl, nr)
}

// bindProbeCost is the modeled cost of one index probe of a bind
// join (sorted-index binary search plus per-probe setup), relative to
// the unit cost of streaming one row through a scan.
const bindProbeCost = 16

// bindJoinCost models sparql.BindJoinScan: one index probe per
// accumulator row.  Matched rows cost the same under every strategy
// (they all emit the join output), so they cancel out of the
// comparison and only the probe term remains.
func bindJoinCost(nl float64) float64 {
	return nl * bindProbeCost
}

// mergeJoinCost models tryMergeScanJoin: scan both sides (the store
// emits them pre-sorted, so there is no sort term), then one linear
// run-alignment pass over both.  Under these models merge dominates
// hash whenever both sides are non-empty — aligning pre-sorted runs
// never loses to hashing the same rows — so the cost gate agrees with
// the old structural gate on the binary choice; its value is that the
// DP ordering *seeks out* merge-eligible adjacencies via this
// discount.
func mergeJoinCost(nl, nr float64) float64 {
	return 2 * (nl + nr)
}
