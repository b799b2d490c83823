package sparql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// withMergeJoin runs fn under the given MergeJoinEnabled setting,
// restoring the previous value.
func withMergeJoin(enabled bool, fn func()) {
	prev := sparql.MergeJoinEnabled
	sparql.MergeJoinEnabled = enabled
	defer func() { sparql.MergeJoinEnabled = prev }()
	fn()
}

// TestMergeJoinAgreesWithHashJoinQuick: on random patterns × random
// graphs per fragment, the row engine with the merge fast path enabled,
// the row engine with it disabled (pure hash join), and the string
// reference evaluator all produce the same answers, every row once.
func TestMergeJoinAgreesWithHashJoinQuick(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5150))
			for trial := 0; trial < 120; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				if fc.ns == "wrap" {
					p = sparql.NS{P: p}
				}
				want := sparql.Eval(g, p)
				var merged, hashed *sparql.RowSet
				withMergeJoin(true, func() { merged = evalRows(t, g, p) })
				withMergeJoin(false, func() { hashed = evalRows(t, g, p) })
				if d := sameRowMultiset(merged, g.Dict(), want); d != nil {
					t.Fatalf("trial %d: merge-enabled engine diverges from reference on\n%s\n%s", trial, p, d)
				}
				if d := sameRowMultiset(hashed, g.Dict(), want); d != nil {
					t.Fatalf("trial %d: merge-disabled engine diverges from reference on\n%s\n%s", trial, p, d)
				}
			}
		})
	}
}

// mergeEligible builds a graph and query pair that must take the merge
// fast path: both operands are triple-pattern scans whose emission
// order leads with the shared variable ?x.
func mergeEligible() (*rdf.Graph, sparql.Pattern, sparql.Pattern) {
	g := rdf.NewGraph()
	for i := 0; i < 40; i++ {
		s := rdf.IRI(fmt.Sprintf("person_%d", i))
		g.Add(s, "works_at", rdf.IRI(fmt.Sprintf("uni_%d", i%3)))
		if i%2 == 0 {
			g.Add(s, "born_in", rdf.IRI(fmt.Sprintf("country_%d", i%5)))
		}
	}
	l := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("works_at"), O: sparql.I("uni_1")}
	r := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("born_in"), O: sparql.I("country_0")}
	return g, l, r
}

// TestMergeJoinTakesFastPath pins that eligible shapes actually run the
// merge path (merge_runs appears in the profile) and produce the
// reference answers, for both AND and OPT.
func TestMergeJoinTakesFastPath(t *testing.T) {
	g, l, r := mergeEligible()
	for _, tc := range []struct {
		name string
		p    sparql.Pattern
	}{
		{"and", sparql.And{L: l, R: r}},
		{"opt", sparql.Opt{L: l, R: r}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sparql.Eval(g, tc.p)
			prof := obs.NewNode("query", "")
			rs, ok, err := sparql.EvalRows(g, tc.p, sparql.NewBudget(context.Background()), sparql.EvalOptions{Prof: prof})
			if err != nil || !ok {
				t.Fatalf("eval: ok=%v err=%v", ok, err)
			}
			if got := rs.MappingSet(g.Dict()); !got.Equal(want) {
				t.Fatalf("merge path diverges\ngot: %v\nwant:%v", got, want)
			}
			snap := prof.Snapshot()
			if runs := snap.Sum(func(n *obs.Profile) int64 { return n.MergeRuns }); runs == 0 {
				t.Fatalf("eligible %s did not take the merge path (no merge_runs in profile)", tc.name)
			}
			if scans := snap.Sum(func(n *obs.Profile) int64 { return n.RangeScans }); scans != 2 {
				t.Fatalf("range_scans = %d, want 2 (one per operand)", scans)
			}
		})
	}
}

// TestMergeJoinIneligibleShapesFallBack: shapes that must not merge —
// different lead variables, a repeated variable, no shared lead — still
// agree with the reference (through the hash join) and record no merge
// runs.
func TestMergeJoinIneligibleShapesFallBack(t *testing.T) {
	g, l, _ := mergeEligible()
	for _, tc := range []struct {
		name string
		p    sparql.Pattern
	}{
		// (?x works_at uni_1) leads with ?x; (?x born_in ?c) leads with ?c.
		{"different-leads", sparql.And{
			L: l,
			R: sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("born_in"), O: sparql.V("c")},
		}},
		// Repeated variable on one side.
		{"repeated-var", sparql.And{
			L: sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("works_at"), O: sparql.V("x")},
			R: l,
		}},
		// One side is not a triple pattern.
		{"non-triple", sparql.And{L: sparql.And{L: l, R: l}, R: l}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sparql.Eval(g, tc.p)
			prof := obs.NewNode("query", "")
			rs, ok, err := sparql.EvalRows(g, tc.p, sparql.NewBudget(context.Background()), sparql.EvalOptions{Prof: prof})
			if err != nil || !ok {
				t.Fatalf("eval: ok=%v err=%v", ok, err)
			}
			if got := rs.MappingSet(g.Dict()); !got.Equal(want) {
				t.Fatalf("fallback diverges\ngot: %v\nwant:%v", got, want)
			}
			root := prof.Snapshot().Children[0]
			if root.MergeRuns != 0 {
				t.Fatalf("ineligible %s recorded merge_runs=%d on the root operator", tc.name, root.MergeRuns)
			}
		})
	}
}

// TestMergeJoinThroughMutationAndCompaction interleaves mutation (with
// a tiny compaction threshold so queries see every overlay/base split)
// with merge-eligible queries, checking the fast path against the
// reference after every batch.
func TestMergeJoinThroughMutationAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	g := rdf.NewGraph()
	g.SetCompactionThreshold(3)
	l := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("works_at"), O: sparql.I("uni_0")}
	r := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("born_in"), O: sparql.I("country_0")}
	patterns := []sparql.Pattern{
		sparql.And{L: l, R: r},
		sparql.Opt{L: l, R: r},
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 5; i++ {
			s := rdf.IRI(fmt.Sprintf("person_%d", rng.Intn(25)))
			switch rng.Intn(4) {
			case 0:
				g.Remove(s, "works_at", rdf.IRI(fmt.Sprintf("uni_%d", rng.Intn(2))))
			case 1:
				g.Remove(s, "born_in", rdf.IRI(fmt.Sprintf("country_%d", rng.Intn(2))))
			case 2:
				g.Add(s, "works_at", rdf.IRI(fmt.Sprintf("uni_%d", rng.Intn(2))))
			default:
				g.Add(s, "born_in", rdf.IRI(fmt.Sprintf("country_%d", rng.Intn(2))))
			}
		}
		for _, p := range patterns {
			want := sparql.Eval(g, p)
			got := rowEngine(t, g, p)
			if !got.Equal(want) {
				st := g.Stats()
				t.Fatalf("round %d: merge path diverges (store %+v) on\n%s\ngot: %v\nwant:%v",
					round, st, p, got, want)
			}
		}
	}
	if g.Stats().Compactions == 0 {
		t.Fatal("test never compacted; threshold plumbing broken")
	}
}

// TestMergeJoinFaultInjection sweeps an injected governor fault through
// every reachable step count of a merge-path evaluation: the injected
// sentinel (and nothing else) surfaces, and a clean re-run still
// agrees with the reference.
func TestMergeJoinFaultInjection(t *testing.T) {
	g, l, r := mergeEligible()
	for _, p := range []sparql.Pattern{
		sparql.And{L: l, R: r},
		sparql.Opt{L: l, R: r},
	} {
		want := sparql.Eval(g, p)
		b := sparql.NewBudget(context.Background())
		rs, ok, err := sparql.EvalRows(g, p, b, sparql.EvalOptions{})
		if err != nil || !ok {
			t.Fatalf("governed merge eval failed without fault: ok=%v err=%v", ok, err)
		}
		if got := rs.MappingSet(g.Dict()); !got.Equal(want) {
			t.Fatalf("governed merge eval diverges")
		}
		total := b.Steps()
		for _, n := range injectionPoints(total, 32) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			rs2, ok2, err := sparql.EvalRows(g, p, b2, sparql.EvalOptions{})
			if err == nil {
				if !ok2 || !rs2.MappingSet(g.Dict()).Equal(want) {
					t.Fatalf("fault@%d/%d: completed with wrong answers", n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
			}
		}
	}
}
