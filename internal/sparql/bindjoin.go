package sparql

import (
	"repro/internal/obs"
	"repro/internal/rdf"
)

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
	return bindJoinScanPar(g, acc, t, b, nil, 0, parent.Child("bindjoin", t.String()))
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
	return bindJoinScanPar(g, acc, t, b, newPool(o.workers()-1), o.minPartition(), parent.Child("bindjoin", t.String()))
}

// bindJoinScanPar records into node itself, so repeated bind joins of
// one stage can share a profile node.
func bindJoinScanPar(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	return evalInstrumented(node, b, func() (*RowSet, error) {
		ts, ok := resolveTriple(t, acc.Schema, g.Dict())
		if !ok {
			// A constant of t is not in the dictionary: ⟦t⟧_G = ∅.
			return acc.like(0), nil
		}
		node.AddRowsIn(int64(acc.Len()))
		if acc.Len() < minPart {
			po = nil
		}
		// ⟦t⟧_G has one domain and no two equal rows (see scan), so when
		// the accumulator has one domain too the join appends (see
		// joinParB).
		distinct := acc.uniform()
		parts, err := parChunks(po, acc.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
			part := acc.like(hi - lo)
			if err := bindProbeRange(g, acc, &ts, lo, hi, part, distinct, b, node); err != nil {
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
// the bind join, shared by the serial and parallel paths.  out is
// private to the caller; the budget and profile node are shared and
// atomic.
func bindProbeRange(g rdf.Store, acc *RowSet, ts *tripleSlots, lo, hi int, out *RowSet, distinct bool, b *Budget, node *obs.Node) error {
	l := b.lease()
	defer l.release()
	// One probe buffer and one match callback serve every row.
	var (
		vals    [3]rdf.ID
		probe   [3]*rdf.ID
		row     []rdf.ID
		rowMask uint64
		err     error
	)
	match := func(tr rdf.IDTriple) bool {
		if err = l.step(); err != nil {
			return false
		}
		dst := out.next()
		copy(dst, row)
		if mask, ok := ts.bindTriple(dst, tr, rowMask); ok {
			err = out.emit(mask, distinct, b)
		}
		return err == nil
	}
	for i := lo; i < hi; i++ {
		row, rowMask = acc.RowIDs(i), acc.Mask(i)
		for j := 0; j < 3; j++ {
			probe[j] = nil
			if ts.isConst[j] {
				vals[j] = ts.constID[j]
				probe[j] = &vals[j]
			} else if rowMask&(1<<uint(ts.slot[j])) != 0 {
				vals[j] = row[ts.slot[j]]
				probe[j] = &vals[j]
			}
		}
		if err = l.step(); err != nil {
			return err
		}
		node.AddRangeScans(1)
		node.AddBindProbes(1)
		if g.MatchIDs(probe[0], probe[1], probe[2], match); err != nil {
			return err
		}
	}
	return nil
}
