package sparql_test

// The tree evaluator's bind join and bind left join (an And or Opt
// node whose right operand is a triple pattern, probed once per left
// row), held to the reference evaluator on every fragment, on left
// sides of mixed domains and on right triples the index cannot answer
// plainly, and swept with injected faults.  SetBindAlways makes every
// such node bind, so the random graphs need not be large enough for
// the join rule to choose it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// bindRight draws the right operand of a bind: a random triple, one
// with a repeated variable, or one with a constant no graph holds.
func bindRight(rng *rand.Rand) sparql.TriplePattern {
	t := workload.RandomTriplePattern(rng, &workload.PatternOpts{})
	switch rng.Intn(6) {
	case 0, 1:
		v := sparql.V(workload.DefaultVars[rng.Intn(len(workload.DefaultVars))])
		if rng.Intn(2) == 0 {
			t.S, t.O = v, v
		} else {
			t.S, t.P = v, v
		}
	case 2:
		t.O = sparql.I("absent_from_every_graph")
	}
	return t
}

// bindLeft draws a left side from the fragment, or — one time in two —
// one whose rows have mixed domains: a UNION, an OPT or an NS over a
// UNION of the fragment's patterns.
func bindLeft(rng *rand.Rand, ops []sparql.Op) sparql.Pattern {
	draw := func() sparql.Pattern {
		return workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: ops})
	}
	switch rng.Intn(6) {
	case 0:
		return sparql.Union{L: draw(), R: draw()}
	case 1:
		return sparql.Opt{L: draw(), R: draw()}
	case 2:
		a := draw()
		return sparql.NS{P: sparql.Union{L: a, R: sparql.And{L: a, R: draw()}}}
	}
	return draw()
}

// sameRowMultiset reports whether rs holds exactly the reference
// answers, each once.
func sameRowMultiset(rs *sparql.RowSet, d *rdf.Dict, want *sparql.MappingSet) error {
	if dup, found := rs.Duplicate(); found {
		return fmt.Errorf("a row twice: %s", dup)
	}
	if rs.Len() != want.Len() || !rs.MappingSet(d).Equal(want) {
		return fmt.Errorf("%d rows %v, want %d %v", rs.Len(), rs.MappingSet(d), want.Len(), want)
	}
	return nil
}

// countBinds counts the bindjoin nodes of a profile.
func countBinds(p *obs.Profile) int {
	n := 0
	p.Walk(func(q *obs.Profile) {
		if q.Op == "bindjoin" {
			n++
		}
	})
	return n
}

// TestTreeBindJoinMatchesEval: And{L, t} and Opt{L, t} with L from
// each of the five fragments (and mixed-domain left sides), on the
// serial and the parallel tree with every And and Opt over a triple
// bind-joined, return the reference answers, each row once; and the
// profile shows a bind node for each such node.
func TestTreeBindJoinMatchesEval(t *testing.T) {
	t.Cleanup(sparql.SetBindAlways())
	engines := []struct {
		name string
		opts sparql.ParOptions
	}{
		{"serial", serialOpts},
		{"parallel", parTestOpts},
	}
	for _, fc := range fragmentCases() {
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2718))
			binds := 0
			for trial := 0; trial < 200; trial++ {
				g := workload.RandomGraph(rng, 4+rng.Intn(30), nil)
				l, r := bindLeft(rng, fc.ops), bindRight(rng)
				for _, p := range []sparql.Pattern{sparql.And{L: l, R: r}, sparql.Opt{L: l, R: r}} {
					if _, ok := sparql.SchemaFor(p); !ok {
						continue
					}
					want := sparql.Eval(g, p)
					for _, en := range engines {
						o := en.opts
						o.Prof = obs.NewNode("query", "")
						rs, _, err := sparql.EvalRows(g, p, nil, o)
						if err != nil {
							t.Fatalf("trial %d, %s: %v\n%s", trial, en.name, err, p)
						}
						if err := sameRowMultiset(rs, g.Dict(), want); err != nil {
							t.Fatalf("trial %d, %s: %v\n%s", trial, en.name, err, p)
						}
						n := countBinds(o.Prof.Snapshot())
						if n == 0 {
							t.Fatalf("trial %d, %s: no bind node\n%s", trial, en.name, p)
						}
						binds += n
					}
				}
			}
			t.Logf("%d bind nodes checked", binds)
		})
	}
}

// TestBindLeftJoinScanMatchesEval is the bind left join's operator
// differential: acc ⟕ ⟦t⟧_G for accumulators of mixed domains and
// right triples with repeated variables or absent constants decodes
// to the reference ⟦A OPT t⟧_G, each row once.
func TestBindLeftJoinScanMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpNS}
	for trial := 0; trial < 400; trial++ {
		g := workload.RandomGraph(rng, 4+rng.Intn(30), nil)
		accPat, r := bindLeft(rng, ops), bindRight(rng)
		joined := sparql.Opt{L: accPat, R: r}
		sc, ok := sparql.SchemaFor(joined)
		if !ok {
			continue
		}
		acc, err := sparql.EvalPatternRows(g, accPat, sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sparql.BindLeftJoinScan(g, acc, r, sparql.NewBudget(context.Background()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sameRowMultiset(got, g.Dict(), sparql.Eval(g, joined)); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, joined)
		}
	}
}

// TestTreeBindFaultInjection sweeps both bind paths of the tree
// evaluator, serial and parallel: a fault at any reachable step aborts
// with the sentinel and a nil result (or the run finished first and
// is exactly right), no worker outlives the call, and the no-fault
// governed run matches the reference.
func TestTreeBindFaultInjection(t *testing.T) {
	t.Cleanup(sparql.SetBindAlways())
	rng := rand.New(rand.NewSource(57721))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	base := runtime.NumGoroutine()
	swept := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		g := workload.RandomGraph(rng, 8+rng.Intn(30), nil)
		l, r := bindLeft(rng, ops), bindRight(rng)
		p := sparql.Pattern(sparql.And{L: l, R: r})
		if trial%2 == 1 {
			p = sparql.Opt{L: l, R: r}
		}
		if _, ok := sparql.SchemaFor(p); !ok {
			continue
		}
		want := sparql.Eval(g, p)
		for _, en := range []struct {
			name string
			opts sparql.ParOptions
		}{{"serial", serialOpts}, {"parallel", parTestOpts}} {
			b := sparql.NewBudget(context.Background())
			rs, _, err := sparql.EvalRows(g, p, b, en.opts)
			if err != nil {
				t.Fatalf("trial %d, %s: governed eval failed without fault: %v", trial, en.name, err)
			}
			if err := sameRowMultiset(rs, g.Dict(), want); err != nil {
				t.Fatalf("trial %d, %s: %v\n%s", trial, en.name, err, p)
			}
			total := b.Steps()
			for _, n := range injectionPoints(total, 24) {
				b2 := sparql.NewBudget(nil)
				b2.InjectFault(n, errInjected)
				rs2, _, err := sparql.EvalRows(g, p, b2, en.opts)
				if err == nil {
					if err := sameRowMultiset(rs2, g.Dict(), want); err != nil {
						t.Fatalf("trial %d, %s, fault@%d/%d: completed wrong: %v", trial, en.name, n, total, err)
					}
					continue
				}
				if !errors.Is(err, errInjected) || rs2 != nil {
					t.Fatalf("trial %d, %s, fault@%d/%d: err = %v, result %v", trial, en.name, n, total, err, rs2 != nil)
				}
				swept[en.name]++
			}
		}
	}
	for _, name := range []string{"serial", "parallel"} {
		if swept[name] < 100 {
			t.Errorf("%s: only %d faults fired", name, swept[name])
		}
	}
	// Every worker a fault unwound has returned.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive the sweep (%d before):\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestBindLeftJoinKeepsUnmatchedRows pins the left join's unmatched
// half on a hand-built case: every left row survives, extended where a
// match exists and alone where none does — including a row whose
// binding for the shared variable is absent (it probes the whole
// predicate) and a right triple whose constant the graph lacks.
func TestBindLeftJoinKeepsUnmatchedRows(t *testing.T) {
	t.Cleanup(sparql.SetBindAlways())
	g := rdf.FromTriples(
		rdf.T("a", "type", "T"), rdf.T("b", "type", "T"), rdf.T("c", "type", "T"),
		rdf.T("a", "email", "ea"), rdf.T("a", "email", "eb"), rdf.T("c", "name", "nc"),
	)
	v, i := sparql.V, sparql.I
	typ := sparql.TP(v("x"), i("type"), i("T"))
	named := sparql.Opt{L: typ, R: sparql.TP(v("x"), i("name"), v("n"))}
	for _, c := range []struct {
		p    sparql.Pattern
		rows int
	}{
		{sparql.Opt{L: typ, R: sparql.TP(v("x"), i("email"), v("e"))}, 4},
		// a and b have no ?n: each probes the whole email predicate and
		// meets both of a's triples; c's ?n has no email and stays alone.
		{sparql.Opt{L: named, R: sparql.TP(v("n"), i("email"), v("e"))}, 5},
		{sparql.Opt{L: typ, R: sparql.TP(v("x"), i("missing"), v("e"))}, 3},
	} {
		rs, _, err := sparql.EvalRows(g, c.p, nil, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRowMultiset(rs, g.Dict(), sparql.Eval(g, c.p)); err != nil || rs.Len() != c.rows {
			t.Fatalf("%s: %d rows, want %d: %v", c.p, rs.Len(), c.rows, err)
		}
	}
}

// TestSampleJoinCountExactBelowSample: with the smaller side's rows
// under the sample size the pair probe is |small ⋈ large| exactly,
// except that large's repeated variables go unchecked, which only
// raises it; above it the probe issues at most sample probes.  Both
// sides draw repeated variables and constants no graph holds.
func TestSampleJoinCountExactBelowSample(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nonEmpty := 0
	for trial := 0; trial < 500; trial++ {
		g := workload.RandomGraph(rng, 4+rng.Intn(40), nil)
		small, large := bindRight(rng), bindRight(rng)
		want := sparql.Eval(g, sparql.And{L: small, R: large}).Len()
		positions := 0
		for _, v := range [3]sparql.Value{large.S, large.P, large.O} {
			if v.IsVar() {
				positions++
			}
		}
		repeated := len(sparql.Vars(large)) < positions
		n := countOf(g, small)
		for _, sample := range []int{64, 3} {
			got, probes := sparql.SampleJoinCount(g, small, large, n, sample)
			if probes > sample {
				t.Fatalf("trial %d: %d probes over a sample of %d", trial, probes, sample)
			}
			if n > sample {
				continue
			}
			if int(got) != want && !(repeated && int(got) > want) {
				t.Fatalf("trial %d: SampleJoinCount(%s, %s) = %v, want %d", trial, small, large, got, want)
			}
			if want > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d exact checks had a non-empty join", nonEmpty)
	}
}

// countOf is the index count of t that a planner passes as n: matches
// of its constants, repeated variables unchecked.
func countOf(g rdf.Store, t sparql.TriplePattern) int {
	var pos [3]*rdf.ID
	for i, v := range [3]sparql.Value{t.S, t.P, t.O} {
		if v.IsVar() {
			continue
		}
		id, ok := g.Dict().Lookup(v.IRI())
		if !ok {
			return 0
		}
		pos[i] = &id
	}
	return g.CountMatchIDs(pos[0], pos[1], pos[2])
}
