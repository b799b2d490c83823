package reduction

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sat"
	"repro/internal/sparql"
)

// hardCNF is the random 3-CNF at the satisfiability threshold, 4.26
// clauses per variable, drawn from seed n.
func hardCNF(n int) *sat.CNF {
	return sat.Random3CNF(rand.New(rand.NewSource(int64(n))), n, int(math.Round(4.26*float64(n))))
}

// selectSteps plans p and runs the plan in full, and returns its budget
// steps, the yardstick a capped run on the same instance is held to,
// and its time, planning included like the capped runs' times.
func selectSteps(t *testing.T, g *rdf.Graph, p sparql.Pattern) (int64, time.Duration) {
	t.Helper()
	b := sparql.NewBudget(nil)
	start := time.Now()
	if _, err := plan.Run(g, plan.Prepare(g, p), b, plan.Options{}); err != nil {
		t.Fatalf("SELECT %s: %v", p, err)
	}
	return b.Steps(), time.Since(start)
}

// TestGadgetCappedRunsWithinSelect is the paper's own hard instances as
// a regression: ASK and LIMIT 1 on the Lemma G.1 gadget, and
// CONSTRUCT membership on the Theorem 7.4 gadget, each under a step
// budget of twice what SELECT spends on the same instance, and each
// agreeing with the DPLL solver.
func TestGadgetCappedRunsWithinSelect(t *testing.T) {
	for n := 8; n <= 14; n++ {
		f := hardCNF(n)
		_, want := sat.Solve(f)

		sg := NewSATGadget(f, "g")
		selSteps, selTime := selectSteps(t, sg.Graph, sg.Pattern)
		limit := 2 * selSteps
		ab := sparql.NewBudget(nil).WithMaxSteps(limit)
		start := time.Now()
		a, err := exec.Run(sg.Graph, exec.Compile(sg.Graph, sg.Pattern, nil, true), ab, plan.Options{})
		if err != nil {
			t.Fatalf("n=%d ASK: %v (limit %d steps)", n, err, limit)
		}
		if *a.Bool != want {
			t.Fatalf("n=%d ASK = %v, DPLL says %v", n, *a.Bool, want)
		}
		askSteps, askTime := ab.Steps(), time.Since(start)

		lb := sparql.NewBudget(nil).WithMaxSteps(limit)
		start = time.Now()
		rows, err := exec.Limit(sg.Graph, sg.Pattern, 1, lb, plan.Options{})
		if err != nil {
			t.Fatalf("n=%d LIMIT 1: %v (limit %d steps)", n, err, limit)
		}
		if (rows.Len() == 1) != want || (want && !rows.Contains(sg.Mapping)) {
			t.Fatalf("n=%d LIMIT 1 = %v, DPLL says %v", n, rows, want)
		}
		limitSteps, limitTime := lb.Steps(), time.Since(start)

		cg := NewConstructGadget(f)
		whereSteps, whereTime := selectSteps(t, cg.Graph, cg.Query.Where)
		climit := 2 * whereSteps
		cb := sparql.NewBudget(nil).WithMaxSteps(climit)
		start = time.Now()
		found, err := exec.ConstructContains(cg.Graph, cg.Query, cg.Triple, cb, plan.Options{})
		if err != nil {
			t.Fatalf("n=%d CONSTRUCT membership: %v (limit %d steps)", n, err, climit)
		}
		if found != want {
			t.Fatalf("n=%d CONSTRUCT membership = %v, DPLL says %v", n, found, want)
		}
		t.Logf("n=%d sat=%v: SELECT %d steps %v; ASK %d steps %v; LIMIT 1 %d steps %v; SELECT(WHERE) %d steps %v; CONSTRUCT membership %d steps %v",
			n, want, selSteps, selTime, askSteps, askTime, limitSteps, limitTime, whereSteps, whereTime, cb.Steps(), time.Since(start))
	}
}
