package sparql

import (
	"math"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// bindProbeCost is the modeled cost of one index probe of a bind join
// (sorted-index binary search plus per-probe setup), relative to the
// unit cost of streaming one row through a scan.
const bindProbeCost = 16

// hashCostFactor weights the hash-table build against a plain scan of
// the same rows (hashing, collision chains, allocation).
const hashCostFactor = 1.2

// BindPays is the engine's one join rule: probe the index once per
// left row (a bind join) when nl·bindProbeCost is below the cost of
// scanning the right operand's nr rows and hash-joining them with the
// left side's nl.  Matched rows cost the same under every strategy
// (each emits the join output), so only the probe term stands against
// the scan and the hash.  The tree evaluator, the chain driver and
// Explain all decide with it: on a triple left operand's exact index
// count, or on the rows a composite one produced.  The rule is
// monotone in nl: a bind join that pays for nl rows pays for fewer.
func BindPays(nl, nr float64) bool {
	hash := nl + nr + hashCostFactor*math.Min(nl, nr) + math.Max(nl, nr)
	return nl*bindProbeCost < hash
}

// BindJoinScan joins an accumulated row set with ⟦t⟧_G by index
// nested-loop: for each accumulator row, the row's bindings for t's
// variables are pinned as constants and the matching index permutation
// is probed directly (rdf.Store.MatchIDs), instead of scanning and
// hashing the pattern's full extension.  With the sorted permutation
// store every probe is one O(log n) range lookup, so the cost is
// |acc| probes plus the matched triples — the winning strategy when a
// selective prefix meets a large predicate, and the reason the
// adaptive executor can beat any static plan on selective chains.
//
// The result is exactly acc ⋈ ⟦t⟧_G under the row algebra's
// compatibility semantics: pinned slots enforce equality on shared
// bound variables, bindTriple rejects repeated-variable mismatches,
// and slots unbound in a given accumulator row simply stay free in
// the probe (that row's probe degrades toward a wider scan, keeping
// the join exact for heterogeneous masks).
func BindJoinScan(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, parent *obs.Node) (*RowSet, error) {
	return bindJoinScanPar(g, acc, t, false, b, nil, 0, parent.Child("bindjoin", t.String()))
}

// BindJoinScanPar is BindJoinScan with the accumulator's rows split
// into morsels dispatched across a bounded worker pool: each worker
// probes the sorted indexes for a contiguous chunk of accumulator rows
// into a private RowSet, and the per-morsel results are merged in
// morsel order (mergeParts).  workers counts the calling goroutine;
// minPart is the accumulator size below which the join stays serial
// (0 = DefaultMinPartition).  The budget is shared and atomic, so a
// governor trip or injected fault stops every morsel within a stride
// and the pool drains before the error returns.
func BindJoinScanPar(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, workers, minPart int, parent *obs.Node) (*RowSet, error) {
	o := ParOptions{Workers: workers, MinPartition: minPart}
	return bindJoinScanPar(g, acc, t, false, b, newPool(o.workers()-1), o.minPartition(), parent.Child("bindjoin", t.String()))
}

// bindJoinScanPar is acc ⋈ ⟦t⟧_G, or with outer set the bind left join
// acc ⟕ ⟦t⟧_G: a row whose probe finds no compatible match is kept
// alone.  It records into node itself, so repeated bind joins of one
// stage can share a profile node.
func bindJoinScanPar(g rdf.Store, acc *RowSet, t TriplePattern, outer bool, b *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	return evalInstrumented(node, b, func() (*RowSet, error) {
		node.AddRowsIn(int64(acc.Len()))
		ts, ok := resolveTriple(t, acc.Schema, g.Dict())
		if !ok {
			// A constant of t is not in the dictionary: ⟦t⟧_G = ∅, and
			// acc ⟕ ∅ = acc.
			if outer {
				return acc, nil
			}
			return acc.like(0), nil
		}
		if acc.Len() < minPart {
			po = nil
		}
		// ⟦t⟧_G has one domain and no two equal rows (see scan), so when
		// the accumulator has one domain too the join appends (see
		// joinParB); the rows a left join keeps alone are distinct left
		// rows compatible with no match, so they repeat no joined row
		// (see leftJoinParB).
		distinct := acc.uniform()
		parts, err := parChunks(po, acc.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
			part := acc.like(hi - lo)
			if err := bindProbeRange(g, acc, &ts, lo, hi, part, outer, distinct, b, node); err != nil {
				return nil, err
			}
			return part, nil
		})
		if err != nil {
			return nil, err
		}
		return mergeParts(parts, distinct, po, b, node)
	})
}

// bindProbeRange probes the sorted indexes for accumulator rows
// [lo, hi), appending the join output to out — the per-morsel work of
// the bind join, shared by the serial and parallel paths.  With outer
// set, a row no match extends is appended alone: at once when out
// appends, and after the joined rows otherwise, outside the membership
// table they need (as in leftJoinParB).  out is private to the caller;
// the budget and profile node are shared and atomic.
func bindProbeRange(g rdf.Store, acc *RowSet, ts *tripleSlots, lo, hi int, out *RowSet, outer, distinct bool, b *Budget, node *obs.Node) error {
	l := b.lease()
	defer l.release()
	// One probe buffer and one match callback serve every row.
	var (
		vals      [3]rdf.ID
		probe     [3]*rdf.ID
		row       []rdf.ID
		rowMask   uint64
		matched   bool
		unmatched []int32
		err       error
	)
	match := func(tr rdf.IDTriple) bool {
		if err = l.step(); err != nil {
			return false
		}
		dst := out.next()
		copy(dst, row)
		if mask, ok := ts.bindTriple(dst, tr, rowMask); ok {
			matched = true
			err = out.emit(mask, distinct, b)
		}
		return err == nil
	}
	for i := lo; i < hi; i++ {
		row, rowMask = acc.RowIDs(i), acc.Mask(i)
		ts.bindProbe(row, rowMask, &vals, &probe)
		if err = l.step(); err != nil {
			return err
		}
		node.AddRangeScans(1)
		node.AddBindProbes(1)
		matched = false
		if g.MatchIDs(probe[0], probe[1], probe[2], match); err != nil {
			return err
		}
		switch {
		case !outer || matched:
		case distinct:
			if err = out.pushCharged(row, rowMask, b); err != nil {
				return err
			}
		default:
			unmatched = append(unmatched, int32(i))
		}
	}
	for _, i := range unmatched {
		if err = out.pushCharged(acc.RowIDs(int(i)), acc.Mask(int(i)), b); err != nil {
			return err
		}
	}
	return nil
}

// bindProbe fills probe with t's index probe for one row of mask: a
// constant position and a variable the row binds are pinned (their IDs
// in vals), every other position stays free.
func (ts *tripleSlots) bindProbe(row []rdf.ID, mask uint64, vals *[3]rdf.ID, probe *[3]*rdf.ID) {
	for j := 0; j < 3; j++ {
		probe[j] = nil
		if ts.isConst[j] {
			vals[j] = ts.constID[j]
			probe[j] = &vals[j]
		} else if mask&(1<<uint(ts.slot[j])) != 0 {
			vals[j] = row[ts.slot[j]]
			probe[j] = &vals[j]
		}
	}
}

// SampleJoinCount estimates |⟦small⟧_G ⋈ ⟦large⟧_G| where small has n
// matches in the index: up to sample of them, evenly spaced
// (rdf.Store.SampleIDs), are bound into large as a bind join binds a
// left row, and each probe's matches are counted (CountMatchIDs).  That
// is the join size exactly when n ≤ sample, and the sample's sum scaled
// to n rows beyond; either way the work is at most sample probes, each
// O(log |G|).  A sampled row breaking a repeated variable of small
// counts zero; large's repeated variables are not checked, which only
// raises the count.  It also returns the number of probes it issued.
func SampleJoinCount(g rdf.Store, small, large TriplePattern, n, sample int) (float64, int) {
	sc, _ := NewVarSchema(Vars(And{L: small, R: large})) // at most six variables
	ss, ok := resolveTriple(small, sc, g.Dict())
	if !ok {
		return 0, 0
	}
	ls, ok := resolveTriple(large, sc, g.Dict())
	if !ok {
		return 0, 0
	}
	var (
		sum, taken, probes int
		row                = make([]rdf.ID, sc.Len())
		vals               [3]rdf.ID
		probe              [3]*rdf.ID
	)
	sp, pp, op := ss.constants()
	g.SampleIDs(sp, pp, op, sample, func(tr rdf.IDTriple) bool {
		taken++
		if mask, ok := ss.bindTriple(row, tr, 0); ok {
			ls.bindProbe(row, mask, &vals, &probe)
			sum += g.CountMatchIDs(probe[0], probe[1], probe[2])
			probes++
		}
		return true
	})
	if taken == 0 {
		return 0, probes
	}
	return float64(sum) * float64(n) / float64(taken), probes
}
