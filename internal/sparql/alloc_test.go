package sparql_test

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestOperatorAllocationsDoNotGrowWithRows: a scan, a merge left join
// and a hash OPT allocate a fixed number of objects — the evaluator,
// the set headers, one presized pair of arrays per set, the chain
// index — whether they move 10³ rows or 10⁴.  A membership table
// (rebuilt at every doubling) or an output grown by doubling would
// each add a term in log n, and a per-row allocation a term in n; the
// ceilings are a few objects above what the operators take today.
func TestOperatorAllocationsDoNotGrowWithRows(t *testing.T) {
	v, i := sparql.V, sparql.I
	queries := []struct {
		name    string
		p       sparql.Pattern
		ceiling float64
	}{
		{"scan", sparql.TP(v("x"), i("p"), v("y")), 20},
		// Both scans are ordered by their object ?x: the merge path.
		{"merge left join", sparql.Opt{L: sparql.TP(v("a"), i("p"), v("x")), R: sparql.TP(v("b"), i("q"), v("x"))}, 34},
		// Ordered by ?y and by ?z: the hash path, keyed on ?x.
		{"hash OPT", sparql.Opt{L: sparql.TP(v("x"), i("p"), v("y")), R: sparql.TP(v("x"), i("q"), v("z"))}, 40},
	}
	for _, n := range []int{1000, 10000} {
		g := rdf.NewGraph()
		for k := 0; k < n; k++ {
			node := rdf.IRI(fmt.Sprintf("n%d", k))
			g.Add(node, "p", node)
			if k%2 == 0 {
				g.Add(node, "q", node)
			}
		}
		g.Compact()
		for _, q := range queries {
			rows := 0
			allocs := testing.AllocsPerRun(10, func() {
				rs, ok, err := sparql.EvalRows(g, q.p, sparql.NewBudget(nil), serialOpts)
				if err != nil || !ok {
					t.Fatalf("%s: ok=%v err=%v", q.name, ok, err)
				}
				if rs.TableBuilt() {
					t.Fatalf("%s built a membership table", q.name)
				}
				rows = rs.Len()
			})
			t.Logf("%s, %d rows: %.0f allocations", q.name, rows, allocs)
			if rows != n {
				t.Errorf("%s: %d rows, want %d", q.name, rows, n)
			}
			if allocs > q.ceiling {
				t.Errorf("%s over %d rows: %.0f allocations, ceiling %.0f", q.name, n, allocs, q.ceiling)
			}
		}
	}
}
