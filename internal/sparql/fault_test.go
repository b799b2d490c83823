package sparql_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// errInjected is the sentinel forced through the engine by the fault
// harness; tests assert it — and nothing else — surfaces.
var errInjected = errors.New("fault: injected governor stop")

// injectionPoints samples up to max step counts in [0, total]: the
// boundaries always, the interior evenly.  The engine's step sequence
// is deterministic in count (though not in emission order), so a fault
// armed at n ≤ total is guaranteed to fire.
func injectionPoints(total int64, max int) []int64 {
	if total <= int64(max) {
		pts := make([]int64, 0, total+1)
		for n := int64(0); n <= total; n++ {
			pts = append(pts, n)
		}
		return pts
	}
	pts := []int64{0, 1, total}
	for i := 1; len(pts) < max; i++ {
		pts = append(pts, total*int64(i)/int64(max))
	}
	return pts
}

// faultFragments is the operator mix the injection sweep runs over:
// the weakly monotone algebra and the full language (whose OPT/NS
// nodes materialise under a cap).
func faultFragments() []struct {
	name string
	ops  []sparql.Op
} {
	return []struct {
		name string
		ops  []sparql.Op
	}{
		{"AUFS", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}},
		{"full", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}},
	}
}

// checkCapped fails unless got is k answers of want (all of them when
// want has fewer): a capped run's contract.  got is a set, so it holds
// no duplicate.
func checkCapped(t *testing.T, got, want *sparql.MappingSet, k int, what string) {
	t.Helper()
	if n := min(k, want.Len()); got.Len() != n {
		t.Fatalf("%s: %d rows, want min(%d, %d) = %d", what, got.Len(), k, want.Len(), n)
	}
	for _, mu := range got.Mappings() {
		if !want.Contains(mu) {
			t.Fatalf("%s: non-answer %v", what, mu)
		}
	}
}

// TestCappedEvalRowsFaultInjection is the harness property test for
// capped runs (ParOptions.Cap, the row engine under ASK and LIMIT):
// with no fault armed, a governed capped run returns min(k, |⟦P⟧|)
// answers; with a fault armed at every reachable step count, it (a)
// surfaces exactly the injected error, (b) returns no partial result,
// and (c) leaves the graph reusable — the next run succeeds.
func TestCappedEvalRowsFaultInjection(t *testing.T) {
	for _, fc := range faultFragments() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(271828))
			for trial := 0; trial < 12; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				o := sparql.ParOptions{Workers: 1, Cap: 1 + rng.Intn(3)}
				want := sparql.Eval(g, p)

				// No fault: a governed capped run keeps the contract.
				b := sparql.NewBudget(context.Background())
				rs, _, err := sparql.EvalRows(g, p, b, o)
				if err != nil {
					t.Fatalf("trial %d: governed capped run failed without fault: %v", trial, err)
				}
				checkCapped(t, rs.MappingSet(g.Dict()), want, o.Cap, p.String())
				total := b.Steps()

				for _, n := range injectionPoints(total, 24) {
					b2 := sparql.NewBudget(nil)
					b2.InjectFault(n, errInjected)
					rs2, _, err := sparql.EvalRows(g, p, b2, o)
					if err == nil {
						// A run may come in under n steps (see
						// TestEvalRowsFaultInjection), but then it must
						// keep the contract.
						checkCapped(t, rs2.MappingSet(g.Dict()), want, o.Cap, p.String())
						continue
					}
					if !errors.Is(err, errInjected) {
						t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
							trial, n, total, err)
					}
					if rs2 != nil {
						t.Fatalf("trial %d, fault@%d: non-nil result alongside error", trial, n)
					}
				}

				// After every abort, a fresh ungoverned run over the same
				// graph still keeps the contract: no state leaked.
				again, _, err := sparql.EvalRows(g, p, nil, o)
				if err != nil {
					t.Fatalf("trial %d: post-fault run failed: %v", trial, err)
				}
				checkCapped(t, again.MappingSet(g.Dict()), want, o.Cap, p.String())
			}
		})
	}
}

// TestEvalRowsFaultInjection sweeps the bottom-up row evaluator: a
// fault at any reachable step must abort with the sentinel and a nil
// result, and the no-fault governed run must match the reference.
func TestEvalRowsFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	for trial := 0; trial < 12; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		want := sparql.Eval(g, p)

		b := sparql.NewBudget(context.Background())
		rs, ok, err := sparql.EvalRows(g, p, b, serialOpts)
		if err != nil {
			t.Fatalf("trial %d: governed eval failed without fault: %v", trial, err)
		}
		if !ok {
			t.Fatal("row path rejected a narrow pattern")
		}
		if gs := rs.MappingSet(g.Dict()); !gs.Equal(want) {
			t.Fatalf("trial %d: governed EvalRows diverges on\n%s\ngot: %v\nwant:%v",
				trial, p, gs, want)
		}
		total := b.Steps()

		for _, n := range injectionPoints(total, 24) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			rs2, _, err := sparql.EvalRows(g, p, b2, serialOpts)
			if err == nil {
				// Step totals are only deterministic up to iteration
				// order (DiffB stops probing early), so a run may come in
				// under n steps — but then it must be complete and correct.
				if gs := rs2.MappingSet(g.Dict()); !gs.Equal(want) {
					t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers", trial, n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
					trial, n, total, err)
			}
			if rs2 != nil {
				t.Fatalf("trial %d, fault@%d: non-nil result alongside error", trial, n)
			}
		}
		// The graph survives the aborts intact.
		if got := sparql.Eval(g, p); !got.Equal(want) {
			t.Fatalf("trial %d: reference answer changed after aborts", trial)
		}
	}
}

// TestEvalBudgetFaultInjection sweeps the governed string-space
// evaluator (the mirror of the reference Eval used by wide-schema
// fallbacks and the delta rules).
func TestEvalBudgetFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	for trial := 0; trial < 12; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		want := sparql.Eval(g, p)

		b := sparql.NewBudget(context.Background())
		ms, err := sparql.EvalBudget(g, p, b)
		if err != nil {
			t.Fatalf("trial %d: governed eval failed without fault: %v", trial, err)
		}
		if !ms.Equal(want) {
			t.Fatalf("trial %d: governed EvalBudget diverges on\n%s\ngot: %v\nwant:%v",
				trial, p, ms, want)
		}
		total := b.Steps()

		for _, n := range injectionPoints(total, 24) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			ms2, err := sparql.EvalBudget(g, p, b2)
			if err == nil {
				if !ms2.Equal(want) {
					t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers", trial, n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
					trial, n, total, err)
			}
			if ms2 != nil {
				t.Fatalf("trial %d, fault@%d: non-nil result alongside error", trial, n)
			}
		}
	}
}

// TestDeadlineStopsSearch wires a real context deadline through a
// capped run (an ASK) on an adversarial cross-product pattern and
// checks the governor actually halts an otherwise long-running
// evaluation: a cap of one cannot cut a join short.
func TestDeadlineStopsSearch(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 60; i++ {
		g.Add(rdf.IRI(string(rune('a'+i%26))+string(rune('0'+i/26))), "p", rdf.IRI(string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	// Four unconstrained triple patterns: |G|⁴ rows, far beyond any
	// deadline this test is willing to wait for.
	p := sparql.And{
		L: sparql.And{
			L: sparql.TP(sparql.V("A"), sparql.I("p"), sparql.V("B")),
			R: sparql.TP(sparql.V("C"), sparql.I("p"), sparql.V("D")),
		},
		R: sparql.And{
			L: sparql.TP(sparql.V("E"), sparql.I("p"), sparql.V("F")),
			R: sparql.TP(sparql.V("G"), sparql.I("p"), sparql.V("H")),
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	b := sparql.NewBudget(ctx)
	start := time.Now()
	_, _, err := sparql.EvalRows(g, p, b, sparql.ParOptions{Workers: 1, Cap: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled/DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}
