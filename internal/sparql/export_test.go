package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Test-only exports: the differential tests need to force the sharded
// NS implementation on inputs far below DefaultMinPartition, the
// distinctness suite needs to see every operator's output, and the
// bind-join tests evaluate operands under a shared schema and force the
// tree evaluator's bind paths.

// MaximalParMin is MaximalParB with a tunable partition threshold.
func (s *RowSet) MaximalParMin(bud *Budget, workers, minPart int) (*RowSet, error) {
	return s.maximalParB(bud, newPool(workers-1), minPart, nil)
}

// SetRowCheck installs f as the hook the evaluators call with every
// operator's output (on whichever goroutine produced it) and returns
// the function that removes it.
func SetRowCheck(f func(*RowSet)) (restore func()) {
	checkRows = f
	return func() { checkRows = nil }
}

// Duplicate looks for two equal rows the slow way — one formatted key
// per row in a map, none of the set's own machinery — and describes
// the first pair it finds.
func (s *RowSet) Duplicate() (string, bool) {
	seen := make(map[string]int, s.Len())
	var key strings.Builder
	for i := 0; i < s.Len(); i++ {
		key.Reset()
		ids := s.RowIDs(i)
		fmt.Fprintf(&key, "%x", s.masks[i])
		for m := s.masks[i]; m != 0; m &= m - 1 {
			fmt.Fprintf(&key, " %d", ids[trailingZeros(m)])
		}
		if j, dup := seen[key.String()]; dup {
			return fmt.Sprintf("rows %d and %d are both mask %x ids [%s ]", j, i, s.masks[i], key.String()), true
		}
		seen[key.String()] = i
	}
	return "", false
}

// TableBuilt reports whether the set has built its membership table.
func (s *RowSet) TableBuilt() bool { return s.table != nil }

// EvalPatternRows evaluates one sub-pattern under an existing
// query-wide schema on the serial engine; sc must cover var(p).
func EvalPatternRows(g rdf.Store, p Pattern, sc *VarSchema) (*RowSet, error) {
	return newEvaluator(g, sc, nil, ParOptions{Workers: 1}).eval(p, nil)
}

// Push appends a row with no membership check, as the operators do
// when they have proved it new.
func (s *RowSet) Push(ids []rdf.ID, mask uint64) { s.push(ids, mask) }

// SetBindAlways makes the tree evaluator bind-join every triple right
// operand of an And or Opt node, whatever the join rule says, and
// returns the function that restores the rule.
func SetBindAlways() (restore func()) {
	bindAlways = true
	return func() { bindAlways = false }
}

// BindLeftJoinScan is the bind left join acc ⟕ ⟦t⟧_G on one worker.
func BindLeftJoinScan(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget) (*RowSet, error) {
	return bindJoinScanPar(g, acc, t, true, b, nil, 0, nil)
}
