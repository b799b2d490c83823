package sparql

import "math/bits"

// This file is the planner-facing surface of the row engine's join
// strategy choice.  The engine historically picked merge-vs-hash with a
// purely structural gate at dispatch time (tryMergeScanJoin); the
// cost-based planner (internal/plan) now decides per binary node and
// passes its decisions down as EvalHints, keyed by the node's pattern
// text.  A nil *EvalHints (or a node with no entry) keeps the
// structural auto behaviour, so every pre-existing entry point is
// unchanged.

// JoinStrategy is the planner's decision for one And/Opt node.
type JoinStrategy uint8

const (
	// StrategyAuto lets the engine decide structurally (the default):
	// the merge fast path runs whenever both operands are index scans
	// sharing their leading sort variable.
	StrategyAuto JoinStrategy = iota
	// StrategyMerge asks for the sort-merge fast path.  It is advisory:
	// a node whose operands do not qualify structurally still runs the
	// hash join (the engine never executes an unsound merge).
	StrategyMerge
	// StrategyHash forces the hash join even when the merge path would
	// qualify.  Used by the planner's cost gate and by ablations.
	StrategyHash
)

// String names the strategy for plan explanations.
func (s JoinStrategy) String() string {
	switch s {
	case StrategyMerge:
		return "merge"
	case StrategyHash:
		return "hash"
	}
	return "auto"
}

// EvalHints carries the planner's per-node execution decisions into the
// row engine.  Nodes are keyed by their pattern text (Pattern.String()),
// so identical subtrees share one decision; a missing key means
// StrategyAuto.  Hints are read-only during evaluation and safe to
// share across concurrent queries.
type EvalHints struct {
	// Join maps an And/Opt node's String() to its join strategy.
	Join map[string]JoinStrategy
}

// JoinStrategyFor returns the hinted strategy for node p
// (StrategyAuto on a nil receiver or a missing entry).
func (h *EvalHints) JoinStrategyFor(p Pattern) JoinStrategy {
	if h == nil || h.Join == nil {
		return StrategyAuto
	}
	return h.Join[p.String()]
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
