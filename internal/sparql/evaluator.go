package sparql

import (
	"repro/internal/obs"
	"repro/internal/rdf"
)

// EvalOptions tunes one row-engine evaluation.
type EvalOptions struct {
	// Prof, when non-nil, collects an execution profile: one child
	// node per operator.  See EvalRows.
	Prof *obs.Node
	// Cap, when positive, keeps at most Cap rows of the answer: the
	// capped run behind ASK and LIMIT (see evalOp's UNION and SELECT).
	Cap int
}

// evaluator is the bottom-up tree evaluator of the row engine.  It
// runs on the calling goroutine: every sub-result uses the same
// query-wide schema, and every operator runs under the one budget so a
// hostile sub-pattern cannot outrun the governor.  The evaluator owns
// the evaluation's free list: every RowSet it creates draws its arrays
// from it, and every intermediate result goes back once its consumer
// has returned.
type evaluator struct {
	g    rdf.Store
	sc   *VarSchema
	b    *Budget
	free freeList
}

func newEvaluator(g rdf.Store, sc *VarSchema, b *Budget) *evaluator {
	return &evaluator{g: g, sc: sc, b: b}
}

// eval attaches a profile node for p under parent (nil disables
// instrumentation) and evaluates.
func (e *evaluator) eval(p Pattern, parent *obs.Node) (*RowSet, error) {
	return e.evalCap(p, 0, parent)
}

// evalCap is eval keeping at most k rows of the answer (all of them
// for k ≤ 0).
func (e *evaluator) evalCap(p Pattern, k int, parent *obs.Node) (*RowSet, error) {
	node := childNode(parent, p)
	return evalInstrumented(node, e.b, func() (*RowSet, error) {
		rs, err := e.evalOp(p, k, node)
		if err != nil || k <= 0 || rs.Len() <= k {
			return rs, err
		}
		return rs.Window(0, k), nil
	})
}

// evalOp dispatches one operator, recursing through eval so the
// children attach under node.  Rows-in is the operand total fed to the
// operator (its own output is recorded by the wrapper).
//
// A cap k > 0 asks for any k rows of the answer.  Two operators can
// stop early on it: UNION leaves its right side unevaluated once the
// left one fills the cap, and SELECT hands a cap of one to its body,
// since any answer projects to an answer.  Every other operator needs
// its operands in full — a join or an NS over a prefix of an operand
// is not a prefix of the answer — and the cap only cuts its output.
func (e *evaluator) evalOp(p Pattern, k int, node *obs.Node) (*RowSet, error) {
	if err := e.b.Step(); err != nil {
		return nil, err
	}
	switch q := p.(type) {
	case TriplePattern:
		ts, ok := resolveTriple(q, e.sc, e.g.Dict())
		if !ok {
			return newRowSet(e.sc, &e.free, 0), nil
		}
		return e.scan(&ts, node)
	case And:
		return e.join(q.L, q.R, false, node)
	case Union:
		// Capped, the right side runs only when the left one leaves the
		// cap unfilled.
		l, err := e.evalCap(q.L, k, node)
		if err != nil || (k > 0 && l.Len() >= k) {
			return l, err
		}
		r, err := e.evalCap(q.R, k, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		out, err := l.UnionB(r, e.b)
		return finish(node, out, err, l, r)
	case Opt:
		return e.join(q.L, q.R, true, node)
	case Filter:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.FilterB(CompileCond(q.Cond, e.sc, e.g.Dict()), e.b)
		return finish(node, out, err, inner)
	case Select:
		if k != 1 {
			k = 0
		}
		inner, err := e.evalCap(q.P, k, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.ProjectB(e.sc.SlotMask(q.Vars), e.b)
		return finish(node, out, err, inner)
	case NS:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.MaximalB(e.b)
		if err == nil {
			recordNS(node, inner, out)
		}
		return finish(node, out, err, inner)
	default:
		return nil, ErrUnsupportedPattern{Pattern: p}
	}
}

// join evaluates l ⋈ r, or l ⟕ r with outer set, under node — the
// operator of an And or Opt node, and the first pair of a chain.  When
// r is a triple pattern the join rule (BindPays) decides between
// probing the index once per left row and scanning r: on l's exact
// index count when l is a triple too, on the rows l produced otherwise.
// A scan of two triple patterns sharing their sort variable merges;
// everything else evaluates both operands and hash-joins.  Profile
// children are created left before right; a bind join's right child is
// its "bindjoin" node, which scans nothing.
func (e *evaluator) join(lp, rp Pattern, outer bool, node *obs.Node) (*RowSet, error) {
	rt, ok := rp.(TriplePattern)
	if !ok {
		return e.hashJoin(lp, rp, outer, node)
	}
	nr := e.count(rt)
	if lt, ok := lp.(TriplePattern); ok && !e.binds(e.count(lt), nr) {
		if rs, handled, err := e.tryMergeScanJoin(lp, rp, node, outer); handled {
			return rs, err
		}
		return e.hashJoin(lp, rp, outer, node)
	}
	l, err := e.eval(lp, node)
	if err != nil {
		return nil, err
	}
	node.AddRowsIn(int64(l.Len()))
	if e.binds(float64(l.Len()), nr) {
		out, err := bindJoinScan(e.g, l, rt, outer, e.b, node.Child("bindjoin", rt.String()))
		return finish(node, out, err, l)
	}
	r, err := e.eval(rp, node)
	if err != nil {
		return nil, err
	}
	node.AddRowsIn(int64(r.Len()))
	return e.joinRows(l, r, outer, node)
}

// binds applies the join rule to a left side of nl rows and a right
// triple of nr.
func (e *evaluator) binds(nl, nr float64) bool {
	return bindAlways || BindPays(nl, nr)
}

// bindAlways, when a test has set it (export_test.go), makes join
// bind-join every triple right operand whatever the sizes: how the
// differential and fault suites drive the bind paths through every
// shape of left side on small random graphs.  Always false outside
// tests.
var bindAlways bool

// hashJoin evaluates both operands, left then right, and hash-joins
// them.
func (e *evaluator) hashJoin(lp, rp Pattern, outer bool, node *obs.Node) (*RowSet, error) {
	l, err := e.eval(lp, node)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(rp, node)
	if err != nil {
		return nil, err
	}
	node.AddRowsIn(int64(l.Len() + r.Len()))
	return e.joinRows(l, r, outer, node)
}

// joinRows is the hash join or left join of two evaluated operands.
func (e *evaluator) joinRows(l, r *RowSet, outer bool, node *obs.Node) (*RowSet, error) {
	var out *RowSet
	var err error
	if outer {
		out, err = l.LeftJoinB(r, e.b)
	} else {
		out, err = l.JoinB(r, e.b)
	}
	return finish(node, out, err, l, r)
}

// count is |⟦t⟧_G| from the index, ignoring repeated variables (which
// only lower it); 0 when a constant of t is not in the dictionary.
func (e *evaluator) count(t TriplePattern) float64 {
	ts, ok := resolveTriple(t, e.sc, e.g.Dict())
	if !ok {
		return 0
	}
	sp, pp, op := ts.constants()
	return float64(e.g.CountMatchIDs(sp, pp, op))
}

// finish ends one operator: the rows its membership table rejected go
// on the profile node, and the operands' arrays go back to the free
// list.  An operator may have returned one of its operands as it is
// (single-domain NS, Ω ∖ ∅, a SELECT that drops nothing, ⋈ with an
// empty side): that set built nothing here and stays alive.
func finish(node *obs.Node, out *RowSet, err error, operands ...*RowSet) (*RowSet, error) {
	if err != nil {
		return nil, err
	}
	built := true
	for _, in := range operands {
		if in == out {
			built = false
		} else {
			in.Release()
		}
	}
	if built {
		node.AddDedupHits(out.DedupHits())
	}
	return out, nil
}
