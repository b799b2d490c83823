package sparql

import (
	"math/bits"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// This file is the sort-merge fast path for Join, Diff and LeftJoin.
// The sorted permutation store (internal/rdf) emits every index scan in
// ascending key order of the permutation it selects, so when both
// operands of a binary operator are triple-pattern scans whose emission
// order leads with the *same variable*, their rows arrive pre-grouped
// by that variable's value and the join reduces to aligning equal-key
// runs — no hash table, no rehashing, one forward pass over each side.
// Everything else falls back to the hash join (JoinB/DiffB/LeftJoinB).
//
// Soundness of the run restriction: a triple pattern binds all of its
// variables in every row it produces, so the shared leading variable is
// bound on both sides of every candidate pair; compatible rows must
// agree on it, hence every compatible pair lies inside one equal-key
// run and — for the Diff half of OPT — a left row with no compatible
// row in its run has none anywhere.

// MergeJoinEnabled gates the fast path.  It exists for the E25 store
// ablation benchmark (merge vs hash join on identical plans) and as an
// escape hatch; the engines consult it at dispatch time.
var MergeJoinEnabled = true

// scanLeadSlot returns the schema slot of the variable that the index
// scan for ts emits its rows ordered by — the leading free position of
// the permutation chooseIndex picks for the pattern's constants.  ok =
// false when the pattern has no variables or repeats one (a repeated
// variable filters rows, breaking the "one row per matched triple"
// accounting the merge path relies on).
func scanLeadSlot(ts *tripleSlots) (int, bool) {
	cbits := 0
	for i := 0; i < 3; i++ {
		if ts.isConst[i] {
			cbits |= 1 << i
		}
	}
	nvars := 3 - bits.OnesCount(uint(cbits))
	if nvars == 0 || bits.OnesCount64(ts.mask) != nvars {
		return 0, false
	}
	// Mirror of rdf's index choice: constants select the permutation,
	// the first unbound position of its key order is the sort leader.
	var lead int
	switch cbits {
	case 0b011: // S,P const -> SPO, ordered by O
		lead = 2
	case 0b110, 0b100, 0b000: // P,O / O / none -> ordered by S
		lead = 0
	case 0b101, 0b001: // S,O / S -> ordered by P
		lead = 1
	case 0b010: // P const -> POS, ordered by O
		lead = 2
	}
	return ts.slot[lead], true
}

// ScanLeadVar returns the variable whose values an index scan for t
// emits in nondecreasing order — the leading free position of the
// permutation the sorted store picks for t's constants.  ok = false
// when the pattern has no variables or repeats one (mirroring
// scanLeadSlot's run-soundness restriction).  It is purely structural
// (no dictionary or schema needed), so the planner can reason about
// merge-join eligibility before evaluation.
func ScanLeadVar(t TriplePattern) (Var, bool) {
	pos := [3]Value{t.S, t.P, t.O}
	cbits := 0
	nvars := 0
	for i, v := range pos {
		if !v.IsVar() {
			cbits |= 1 << i
		} else {
			nvars++
		}
	}
	if nvars == 0 {
		return "", false
	}
	// Repeated variables filter rows, breaking run alignment.
	seen := map[Var]bool{}
	for _, v := range pos {
		if v.IsVar() {
			if seen[v.Var()] {
				return "", false
			}
			seen[v.Var()] = true
		}
	}
	if bits.OnesCount(uint(cbits))+nvars != 3 {
		return "", false
	}
	// Mirror of scanLeadSlot / rdf's chooseIndex.
	var lead int
	switch cbits {
	case 0b011: // S,P const -> SPO, ordered by O
		lead = 2
	case 0b110, 0b100, 0b000: // P,O / O / none -> ordered by S
		lead = 0
	case 0b101, 0b001: // S,O / S -> ordered by P
		lead = 1
	case 0b010: // P const -> POS, ordered by O
		lead = 2
	}
	return pos[lead].Var(), true
}

// tryMergeScanJoin attempts the merge fast path for l ⋈ r (outer =
// false) or l ⟕ r (outer = true).  handled = false means the operands
// don't qualify — not both triple patterns, different lead variables, a
// repeated variable, or a constant missing from the dictionary — and
// the caller must run the standard path; nothing has been recorded on
// node in that case.  When handled, the profile children for both
// operands have been created (L before R) and the operator's counters
// (rows in, merge runs) recorded, exactly like the standard path.
func (e *evaluator) tryMergeScanJoin(lp, rp Pattern, node *obs.Node, outer bool) (*RowSet, bool, error) {
	if !MergeJoinEnabled {
		return nil, false, nil
	}
	lt, ok := lp.(TriplePattern)
	if !ok {
		return nil, false, nil
	}
	rt, ok := rp.(TriplePattern)
	if !ok {
		return nil, false, nil
	}
	lts, ok := resolveTriple(lt, e.sc, e.g.Dict())
	if !ok {
		return nil, false, nil
	}
	rts, ok := resolveTriple(rt, e.sc, e.g.Dict())
	if !ok {
		return nil, false, nil
	}
	lead, ok := scanLeadSlot(&lts)
	if !ok {
		return nil, false, nil
	}
	if rLead, ok := scanLeadSlot(&rts); !ok || rLead != lead {
		return nil, false, nil
	}
	// The two scans run as the operands' own operators, so the profile
	// tree stays congruent to the pattern tree whichever join strategy
	// ran.  No repeated variables (scanLeadSlot rejected those): every
	// matched triple is one row, in the store's emission order.
	nl := childNode(node, lp)
	ls, err := evalInstrumented(nl, e.b, func() (*RowSet, error) { return e.scan(&lts, nl) })
	if err != nil {
		return nil, true, err
	}
	nr := childNode(node, rp)
	rs, err := evalInstrumented(nr, e.b, func() (*RowSet, error) { return e.scan(&rts, nr) })
	if err != nil {
		return nil, true, err
	}
	node.AddRowsIn(int64(ls.Len() + rs.Len()))
	out := ls.like(max(ls.Len(), rs.Len()))
	runs, err := mergeJoinRuns(ls, rs, lead, outer, e.b, out)
	if err != nil {
		return nil, true, err
	}
	node.AddMergeRuns(runs)
	ls.Release()
	rs.Release()
	return out, true, nil
}

// mergeJoinRuns aligns the equal-key runs of two scans whose rows are
// nondecreasing in slot lead (the store's emission-order contract) and
// appends the compatible pairs to out; with outer set, left rows with
// no compatible partner are appended alone (the Diff half of ⟕).  Both
// sides have one domain, so no two output rows are equal (see
// joinParB and leftJoinParB).  Returns the number of aligned runs
// (both sides non-empty at the key).
func mergeJoinRuns(l, r *RowSet, lead int, outer bool, b *Budget, out *RowSet) (int64, error) {
	w := l.Schema.Len()
	lkey := func(i int) rdf.ID { return l.ids[i*w+lead] }
	rkey := func(j int) rdf.ID { return r.ids[j*w+lead] }
	lmask, rmask := l.alwaysBoundMask(), r.alwaysBoundMask()
	ln, rn := l.Len(), r.Len()
	lease := b.lease()
	defer lease.release()
	var runs int64
	i, j := 0, 0
	for i < ln {
		if j >= rn || lkey(i) < rkey(j) {
			if !outer {
				if j >= rn {
					break
				}
				i++
				continue
			}
			if err := lease.step(); err != nil {
				return runs, err
			}
			if err := out.pushCharged(l.RowIDs(i), lmask, b); err != nil {
				return runs, err
			}
			i++
			continue
		}
		k := rkey(j)
		if lkey(i) > k {
			j++
			continue
		}
		i1 := i
		for i1 < ln && lkey(i1) == k {
			i1++
		}
		j1 := j
		for j1 < rn && rkey(j1) == k {
			j1++
		}
		runs++
		for a := i; a < i1; a++ {
			arow := l.RowIDs(a)
			matched := false
			for c := j; c < j1; c++ {
				if err := lease.step(); err != nil {
					return runs, err
				}
				ok, err := out.joinPair(arow, lmask, r.RowIDs(c), rmask, true, b)
				if err != nil {
					return runs, err
				}
				matched = matched || ok
			}
			if outer && !matched {
				if err := out.pushCharged(arow, lmask, b); err != nil {
					return runs, err
				}
			}
		}
		i, j = i1, j1
	}
	return runs, nil
}
