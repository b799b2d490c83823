// Cost model of planner v2.  The sorted permutation store answers
// exact pattern cardinalities in O(log n) (rdf.Store.CountMatch), so
// leaf estimates are exact.  Join estimates come from pair probes:
// for every two triple operands of an AND chain that share a
// variable, the estimator binds up to pairSample evenly spaced rows of
// the smaller one into the larger and counts each probe's matches
// (sparql.SampleJoinCount), which gives |a ⋈ b| exactly when the
// smaller side has at most pairSample rows and scales the sample's
// sum by |smaller|/pairSample beyond.  The sampled rows are taken by
// position from the index (rdf.Store.SampleIDs), so a pair costs
// O(pairSample · log |G|) however large its operands are.  A prefix S of a chain grows by
// operand c through its most selective probed pair:
//
//	|S ⋈ c| ≈ |S| · min_{m ∈ S, m ~ c} |m ⋈ c| / |m|
//
// over the triples m of S that share a variable with c.  Where no
// such pair exists (a composite operand, a cross product) the
// classic System-R bound stands in:
//
//	|L ⋈ R| ≈ |L|·|R| · ∏_{v ∈ var(L)∩var(R)} 1 / max(dv_L(v), dv_R(v))
//
// with dv_X(v) an upper bound on the distinct values v takes in X.
// The chain cost metric is C_out: the sum of leaf scan costs plus
// every intermediate join cardinality — the quantity the DP ordering
// minimizes, the chain driver's drift targets, and what its re-plan
// re-estimates against observed rows.  Which join runs at each step is
// not the planner's to say: the engine decides with one rule on the
// rows it sees (sparql.BindPays).
//
// The estimator memoizes every index probe, so preparing a k-pattern
// query costs k leaf counts plus at most pairSample probes (and
// pairSample sampled rows) per connected pair of triples, no matter
// how many orders the DP considers (the probe-count test pins this).
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
	// leavesOnly skips the pair probes (the greedy ablation): joins are
	// estimated from leaf counts and distinct-value bounds alone.
	leavesOnly bool
}

// estMemo is the estimator's memo.  The mutex makes it safe for the
// adaptive executor to re-plan concurrently running queries that
// share one cached plan.
type estMemo struct {
	mu      sync.Mutex
	triples map[sparql.TriplePattern]float64
	pairs   map[[2]sparql.TriplePattern]float64
	comps   map[string]float64
	probes  int
}

func newEstimator(g rdf.Store) *estimator {
	return &estimator{g: g, estMemo: &estMemo{
		triples: make(map[sparql.TriplePattern]float64),
		pairs:   make(map[[2]sparql.TriplePattern]float64),
		comps:   make(map[string]float64),
	}}
}

// Probes returns how many index probes the estimator has issued (memo
// misses only): one per leaf count, one per sampled row of a pair
// probe.
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
		// The chain in its order, each prefix grown by its most
		// selective probed pair: the estimate the DP ordered it by.
		ops := andOperands(q)
		cands := buildCands(e, ops)
		cards := chainCards(cands, e.pairSizes(cands), identityOrder(len(ops)))
		c = cards[len(cards)-1]
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

// pairSample is the most rows of the smaller operand a pair probe
// binds into the larger one.
const pairSample = 64

// pairCard estimates |a ⋈ b| for two triple patterns by a pair probe,
// memoized on the unordered pair: up to pairSample evenly spaced rows
// of the smaller side are bound into the larger and their matches
// counted (sparql.SampleJoinCount), exact at ≤ pairSample rows and
// scaled beyond.
func (e *estimator) pairCard(a, b sparql.TriplePattern) float64 {
	key := [2]sparql.TriplePattern{a, b}
	e.mu.Lock()
	if c, ok := e.pairs[key]; ok {
		e.mu.Unlock()
		return c
	}
	e.mu.Unlock()
	na, nb := e.tripleCount(a), e.tripleCount(b)
	small, large, n := a, b, na
	if nb < na {
		small, large, n = b, a, nb
	}
	c, probes := sparql.SampleJoinCount(e.g, small, large, int(n), pairSample)
	e.mu.Lock()
	e.pairs[key], e.pairs[[2]sparql.TriplePattern{b, a}] = c, c
	e.probes += probes
	e.mu.Unlock()
	return c
}

// pairSizes returns the pair-probed |c_i ⋈ c_j| for every two triple
// operands that share a variable, and NaN for every other pair (nil
// when the estimator probes leaves only).
func (e *estimator) pairSizes(cands []cand) [][]float64 {
	if e.leavesOnly {
		return nil
	}
	sz := make([][]float64, len(cands))
	for i := range sz {
		sz[i] = make([]float64, len(cands))
		for j := range sz[i] {
			sz[i][j] = math.NaN()
		}
	}
	for i := range cands {
		ti, ok := cands[i].p.(sparql.TriplePattern)
		if !ok {
			continue
		}
		for j := i + 1; j < len(cands); j++ {
			tj, ok := cands[j].p.(sparql.TriplePattern)
			if !ok || !cands[i].sharesVar(&cands[j]) {
				continue
			}
			sz[i][j] = e.pairCard(ti, tj)
			sz[j][i] = sz[i][j]
		}
	}
	return sz
}

// extendCard estimates |S ⋈ c_j| for a prefix S of cardinality card
// and distinct-value bounds dv made of the operands members.  The most
// selective probed pair — the member m with the smallest |m ⋈ c_j| —
// says how many rows c_j adds per row of m, and S gains that many per
// row: card · |m ⋈ c_j| / |m|.  With no probed pair between c_j and a
// member (a nil matrix has none) the distinct-value bound stands in.
func extendCard(cands []cand, pairs [][]float64, members []int, card float64, dv dvMap, j int) (float64, dvMap) {
	c := &cands[j]
	best := -1
	if pairs != nil {
		for _, m := range members {
			if p := pairs[m][j]; !math.IsNaN(p) && (best < 0 || p < pairs[best][j]) {
				best = m
			}
		}
	}
	if best < 0 {
		return joinCard(card, c.est, dv, leafDV(c.vars, c.est))
	}
	out := 0.0
	if n := cands[best].est; n > 0 {
		out = card * pairs[best][j] / n
	}
	return joinCardInto(out, dv, leafDV(c.vars, c.est))
}
