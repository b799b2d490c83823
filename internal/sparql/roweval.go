package sparql

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// EvalRows computes ⟦P⟧_G with the ID-native row engine: one VarSchema
// for the whole query, dictionary-encoded rows throughout, and the
// mask-bucketed NS algorithm.  ok = false when the pattern exceeds
// MaxSchemaVars variables; nothing is evaluated and callers fall back
// to the string algebra (EvalBudget).
//
// The evaluation runs on the calling goroutine.  The budget is charged
// per triple-index probe, join candidate and materialized row, and a
// nil budget disables accounting; the evaluation aborts with the
// budget's typed error (ErrCanceled, ErrBudgetExceeded) as soon as the
// governor trips, and a malformed plan surfaces as
// ErrUnsupportedPattern instead of panicking.  A non-nil
// o.Prof gets one child node per operator (wall time, rows in/out,
// dedup hits, NS pruning per mask bucket, budget consumption) at the
// cost of one nil check per operator node when nil.  Each And and Opt
// node picks its join with the one rule, BindPays.
//
// The result decodes to exactly Eval(g, p) (differentially tested);
// Eval stays the reference implementation and oracle.
func EvalRows(g rdf.Store, p Pattern, b *Budget, o EvalOptions) (*RowSet, bool, error) {
	sc, ok := SchemaFor(p)
	if !ok {
		return nil, false, nil
	}
	rs, err := newEvaluator(g, sc, b).evalCap(p, o.Cap, o.Prof)
	if err != nil {
		return nil, true, err
	}
	return rs, true, nil
}

// opName maps a pattern node to its profile operator name and detail.
// Only triples carry a detail (their pattern text): inner nodes are
// identified by tree position, and repeating whole sub-pattern strings
// would bloat every profile response.
func opName(p Pattern) (op, detail string) {
	switch q := p.(type) {
	case TriplePattern:
		return "triple", q.String()
	case And:
		return "and", ""
	case Union:
		return "union", ""
	case Opt:
		return "opt", ""
	case Filter:
		return "filter", ""
	case Select:
		return "select", ""
	case NS:
		return "ns", ""
	}
	return fmt.Sprintf("%T", p), ""
}

// childNode attaches a profile node for pattern p under parent (nil in,
// nil out: the uninstrumented path never allocates).
func childNode(parent *obs.Node, p Pattern) *obs.Node {
	if parent == nil {
		return nil
	}
	op, detail := opName(p)
	return parent.Child(op, detail)
}

// evalInstrumented wraps one operator evaluation with the profile
// counters every operator has: wall time and budget deltas over the
// call's window, then rows out.  Budget deltas include the children
// evaluated inside the window (see obs.Node.AddBudget); the root
// node's totals are exact.
func evalInstrumented(node *obs.Node, b *Budget, eval func() (*RowSet, error)) (*RowSet, error) {
	var (
		start                 time.Time
		steps0, rows0, bytes0 int64
	)
	if node != nil {
		start = time.Now()
		steps0, rows0, bytes0 = b.Counters()
	}
	rs, err := eval()
	if node != nil {
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
	}
	if err != nil {
		return nil, err
	}
	if checkRows != nil {
		checkRows(rs)
	}
	node.AddRowsOut(int64(rs.Len()))
	return rs, nil
}

// checkRows, when a test has set it (export_test.go), is shown every
// operator's output — where the distinctness suite hangs its
// duplicate check.  Always nil outside tests.
var checkRows func(*RowSet)

// recordNS attributes an NS operator's pruning to its profile node:
// total candidates vs survivors, plus the per-presence-mask breakdown
// (survivors are a subset of candidates, so every survivor mask has a
// candidate bucket).
func recordNS(node *obs.Node, in, out *RowSet) {
	if node == nil {
		return
	}
	node.AddNS(int64(in.Len()), int64(out.Len()))
	type cs struct{ c, s int64 }
	buckets := make(map[uint64]*cs)
	for i := 0; i < in.Len(); i++ {
		m := in.masks[i]
		b := buckets[m]
		if b == nil {
			b = &cs{}
			buckets[m] = b
		}
		b.c++
	}
	for i := 0; i < out.Len(); i++ {
		buckets[out.masks[i]].s++
	}
	for m, b := range buckets {
		node.AddNSBucket(m, b.c, b.s)
	}
}

// tripleSlots resolves the positions of a triple pattern against a
// schema and dictionary: each position is either a constant ID or a
// slot index.  ok = false when a constant is absent from the
// dictionary (the pattern matches nothing).
type tripleSlots struct {
	constID [3]rdf.ID
	isConst [3]bool
	slot    [3]int
	mask    uint64 // slots of the variable positions, i.e. var(t)
}

func resolveTriple(t TriplePattern, sc *VarSchema, d *rdf.Dict) (tripleSlots, bool) {
	var ts tripleSlots
	for i, v := range [3]Value{t.S, t.P, t.O} {
		if v.IsVar() {
			s, ok := sc.Slot(v.Var())
			if !ok {
				// Schema built from var(P) always covers var(t).
				panic("sparql: triple variable outside schema")
			}
			ts.slot[i] = s
			ts.mask |= 1 << uint(s)
			continue
		}
		id, ok := d.Lookup(v.IRI())
		if !ok {
			return ts, false
		}
		ts.isConst[i] = true
		ts.constID[i] = id
	}
	return ts, true
}

// bindTriple writes the matched IDs of a triple into the variable slots
// of dst, reporting false when a repeated variable would need two
// different images.  Positions bound as constants are skipped (the
// index already constrained them).
func (ts *tripleSlots) bindTriple(dst []rdf.ID, tr rdf.IDTriple, boundMask uint64) (uint64, bool) {
	vals := [3]rdf.ID{tr.S, tr.P, tr.O}
	written := boundMask
	for i := 0; i < 3; i++ {
		if ts.isConst[i] {
			continue
		}
		bit := uint64(1) << uint(ts.slot[i])
		if written&bit != 0 {
			if dst[ts.slot[i]] != vals[i] {
				return 0, false
			}
			continue
		}
		dst[ts.slot[i]] = vals[i]
		written |= bit
	}
	return written, true
}

// EvalTripleDeltaB computes the matches of t among a slice of delta
// triples given in the dictionary's ID space — the Δ⟦t⟧ rule of
// incremental view maintenance, evaluated without building a delta
// graph (which would carry its own, incompatible dictionary) — under a
// governor.
func EvalTripleDeltaB(t TriplePattern, sc *VarSchema, d *rdf.Dict, delta []rdf.IDTriple, b *Budget) (*RowSet, error) {
	out := NewRowSet(sc)
	ts, ok := resolveTriple(t, sc, d)
	if !ok {
		return out, nil
	}
	for _, tr := range delta {
		if err := b.Step(); err != nil {
			return nil, err
		}
		vals := [3]rdf.ID{tr.S, tr.P, tr.O}
		match := true
		for i := 0; i < 3; i++ {
			if ts.isConst[i] && ts.constID[i] != vals[i] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if _, ok := ts.bindTriple(out.next(), tr, 0); ok {
			out.addNext(ts.mask) // a delta may name a triple twice
		}
	}
	return out, nil
}

// constants returns the constant positions of the pattern as index
// constraints (nil = free).
func (ts *tripleSlots) constants() (sp, pp, op *rdf.ID) {
	if ts.isConst[0] {
		sp = &ts.constID[0]
	}
	if ts.isConst[1] {
		pp = &ts.constID[1]
	}
	if ts.isConst[2] {
		op = &ts.constID[2]
	}
	return sp, pp, op
}

// scan computes ⟦t⟧_G directly on the ID-level indexes: a constant in
// any of the three positions selects the matching index order
// (SPO/POS/OSP) via MatchIDs, and repeated variables are checked in ID
// space.  Each matched triple charges one budget step; the scan is
// recorded as one range scan on the pattern's profile node.
//
// The output is sized by the index's exact match count and filled by
// appending: the store holds a triple once, and two triples that agree
// on the pattern's constants differ at a variable position, so no two
// rows are equal.
func (e *evaluator) scan(ts *tripleSlots, node *obs.Node) (*RowSet, error) {
	node.AddRangeScans(1)
	sp, pp, op := ts.constants()
	out := newRowSet(e.sc, &e.free, e.g.CountMatchIDs(sp, pp, op))
	w := e.sc.Len()
	l := e.b.lease()
	defer l.release()
	var err error
	e.g.MatchIDs(sp, pp, op, func(tr rdf.IDTriple) bool {
		if err = l.step(); err != nil {
			return false
		}
		if _, ok := ts.bindTriple(out.next(), tr, 0); ok {
			out.commit(ts.mask)
			err = e.b.chargeRow(w)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
