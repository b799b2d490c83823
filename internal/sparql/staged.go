package sparql

import (
	"repro/internal/obs"
	"repro/internal/rdf"
)

// StagedExec is the planner-facing handle on one evaluator for chain
// execution (see internal/plan's chain driver): the driver evaluates a
// DP-ordered AND chain one stage — one operand joined onto the prefix —
// at a time, observing materialized prefix cardinalities at drift
// checkpoints between stages.  One StagedExec serves one query: it owns
// the free list and shares the query's schema and budget with every
// stage, so the whole chain is governed by a single budget exactly like
// the tree evaluator.
type StagedExec struct {
	e *evaluator
}

// NewStagedExec builds the handle for pattern p.  ok = false when p
// exceeds MaxSchemaVars (the caller falls back like the other row
// entry points).
func NewStagedExec(g rdf.Store, p Pattern, b *Budget) (*StagedExec, bool) {
	sc, ok := SchemaFor(p)
	if !ok {
		return nil, false
	}
	return &StagedExec{e: newEvaluator(g, sc, b)}, true
}

// Schema returns the query-wide schema the handle evaluates under.
func (x *StagedExec) Schema() *VarSchema { return x.e.sc }

// EvalOperand evaluates one chain operand on the tree evaluator,
// attaching its operator profile under parent.  Operands are usually
// single index scans, but may be composite (filter-wrapped scans,
// nested unions).
func (x *StagedExec) EvalOperand(p Pattern, parent *obs.Node) (*RowSet, error) {
	return x.e.eval(p, parent)
}

// JoinFirst joins a chain's first pair of triples as the tree evaluator
// joins an And node (the join rule, then merge or hash), with the
// operands' profile nodes under node.
func (x *StagedExec) JoinFirst(l, r Pattern, node *obs.Node) (*RowSet, error) {
	out, err := x.e.join(l, r, false, node)
	if err == nil && checkRows != nil {
		checkRows(out)
	}
	return out, err
}

// Join hash-joins the accumulated prefix with one operand's rows.
func (x *StagedExec) Join(acc, r *RowSet, node *obs.Node) (*RowSet, error) {
	node.AddRowsIn(int64(acc.Len() + r.Len()))
	out, err := acc.JoinB(r, x.e.b)
	if err == nil && checkRows != nil {
		checkRows(out)
	}
	return out, err
}

// BindJoin probes the sorted indexes with each of acc's rows' bindings
// (see BindJoinScan).  It records into node itself rather than into a
// child of it.
func (x *StagedExec) BindJoin(acc *RowSet, t TriplePattern, node *obs.Node) (*RowSet, error) {
	return bindJoinScan(x.e.g, acc, t, false, x.e.b, node)
}

// Probe joins acc with an operand evaluated earlier, always building on
// the operand: a capped chain joins one operand with many small
// morsels, and the operand's chain index, cached on it, is built once.
// The output is a new set even when a side is empty.
func (x *StagedExec) Probe(acc, r *RowSet, node *obs.Node) (*RowSet, error) {
	return evalInstrumented(node, x.e.b, func() (*RowSet, error) {
		node.AddRowsIn(int64(acc.Len()))
		if acc.Len() == 0 || r.Len() == 0 {
			return acc.like(0), nil
		}
		return r.probeJoin(acc, x.e.b)
	})
}

// Morsels hands the rows of ⟦p⟧_G to fn in morsels of first, 2·first,
// 4·first, … rows until fn returns false or the rows run out: the
// first stage of a capped chain.  A triple pattern is scanned lazily,
// so the index scan stops where fn does; any other operand is
// evaluated in full first.  A morsel is fn's only for the call.
func (x *StagedExec) Morsels(p Pattern, first int, parent *obs.Node, fn func(*RowSet) (bool, error)) error {
	e := x.e
	var rs *RowSet
	lo, size, more := 0, max(first, 1), true
	var err error
	emit := func(hi int) bool {
		more, err = fn(rs.Window(lo, hi))
		lo, size = hi, 2*size
		return more && err == nil
	}
	t, ok := p.(TriplePattern)
	if !ok {
		if rs, err = e.eval(p, parent); err != nil {
			return err
		}
		for lo < rs.Len() && emit(min(lo+size, rs.Len())) {
		}
		return err
	}
	node := childNode(parent, p)
	ts, ok := resolveTriple(t, e.sc, e.g.Dict())
	if !ok {
		return nil
	}
	node.AddRangeScans(1)
	rs = newRowSet(e.sc, &e.free, 0) // not size: a cap may be huge
	l := e.b.lease()
	sp, pp, op := ts.constants()
	e.g.MatchIDs(sp, pp, op, func(tr rdf.IDTriple) bool {
		if err = l.step(); err != nil {
			return false
		}
		if _, ok := ts.bindTriple(rs.next(), tr, 0); !ok {
			return true
		}
		rs.commit(ts.mask)
		if err = e.b.chargeRow(e.sc.Len()); err != nil || rs.Len() < lo+size {
			return err == nil
		}
		l.release() // fn steps on leases of its own
		ok := emit(rs.Len())
		l = e.b.lease()
		return ok
	})
	l.release()
	node.AddRowsOut(int64(rs.Len()))
	if err == nil && more && lo < rs.Len() {
		emit(rs.Len())
	}
	return err
}
