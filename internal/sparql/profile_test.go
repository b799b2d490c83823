package sparql_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// profileKids maps a pattern node onto the sub-patterns its profile
// children correspond to, in the order the instrumented evaluators
// create them (left before right; fan-out pre-creates both nodes
// before spawning, so the order is deterministic under parallelism
// too).
func profileKids(p sparql.Pattern) []sparql.Pattern {
	switch q := p.(type) {
	case sparql.And:
		return []sparql.Pattern{q.L, q.R}
	case sparql.Union:
		return []sparql.Pattern{q.L, q.R}
	case sparql.Opt:
		return []sparql.Pattern{q.L, q.R}
	case sparql.Filter:
		return []sparql.Pattern{q.P}
	case sparql.Select:
		return []sparql.Pattern{q.P}
	case sparql.NS:
		return []sparql.Pattern{q.P}
	default:
		return nil
	}
}

// checkProfileNode walks the profile tree alongside the pattern tree,
// holding every per-operator counter to the reference evaluator's
// answer sets: rows out is |⟦P⟧_G|, rows in is the sum of the operand
// answer sets, and NS candidates/survivors are the inner answer set
// before and after the maximality pass (with the per-mask buckets
// summing to the totals).  An And or Opt node that bind-joined its
// right triple took in only its left operand's rows L, and its right
// child is the "bindjoin" node: L rows in, one probe and one range scan
// per row of L, the join's rows out, and no scan of the triple.  It
// returns the number of bind nodes in the subtree.
func checkProfileNode(t *testing.T, g *rdf.Graph, p sparql.Pattern, node *obs.Profile) int {
	t.Helper()
	want := sparql.Eval(g, p)
	if node.RowsOut != int64(want.Len()) {
		t.Fatalf("%T: rows_out=%d, reference says %d\npattern: %s",
			p, node.RowsOut, want.Len(), p)
	}
	kids := profileKids(p)
	if len(node.Children) != len(kids) {
		t.Fatalf("%T: %d profile children, want %d\npattern: %s",
			p, len(node.Children), len(kids), p)
	}
	if len(kids) == 2 && node.Children[1].Op == "bindjoin" {
		nl := int64(sparql.Eval(g, kids[0]).Len())
		bind := node.Children[1]
		switch {
		case bind.Detail != kids[1].String():
			t.Fatalf("bindjoin node for %q under %s", bind.Detail, p)
		case node.RowsIn != nl || bind.RowsIn != nl:
			t.Fatalf("%T: bind rows_in=%d (node) and %d (bindjoin), want |L|=%d\npattern: %s",
				p, node.RowsIn, bind.RowsIn, nl, p)
		case bind.BindProbes != nl || bind.RangeScans != nl:
			t.Fatalf("%T: bind_probes=%d range_scans=%d, want |L|=%d\npattern: %s",
				p, bind.BindProbes, bind.RangeScans, nl, p)
		case bind.RowsOut != int64(want.Len()) || len(bind.Children) != 0:
			t.Fatalf("%T: bindjoin rows_out=%d with %d children, want %d and none\npattern: %s",
				p, bind.RowsOut, len(bind.Children), want.Len(), p)
		}
		return 1 + checkProfileNode(t, g, kids[0], node.Children[0])
	}
	var wantIn int64
	for _, k := range kids {
		wantIn += int64(sparql.Eval(g, k).Len())
	}
	if node.RowsIn != wantIn {
		t.Fatalf("%T: rows_in=%d, reference says %d\npattern: %s",
			p, node.RowsIn, wantIn, p)
	}
	if q, isNS := p.(sparql.NS); isNS {
		inner := sparql.Eval(g, q.P)
		if node.NSCandidates != int64(inner.Len()) {
			t.Fatalf("NS: candidates=%d, reference says %d\npattern: %s",
				node.NSCandidates, inner.Len(), p)
		}
		if node.NSSurvivors != int64(want.Len()) {
			t.Fatalf("NS: survivors=%d, reference says %d\npattern: %s",
				node.NSSurvivors, want.Len(), p)
		}
		var c, s int64
		for _, b := range node.NSBuckets {
			c += b.Candidates
			s += b.Survivors
		}
		if c != node.NSCandidates || s != node.NSSurvivors {
			t.Fatalf("NS: bucket sums %d/%d != totals %d/%d",
				c, s, node.NSCandidates, node.NSSurvivors)
		}
	}
	binds := 0
	for i := range kids {
		binds += checkProfileNode(t, g, kids[i], node.Children[i])
	}
	return binds
}

// profileTrial draws one random graph × pattern for a fragment.
func profileTrial(rng *rand.Rand, fcOps []sparql.Op, ns string) (*rdf.Graph, sparql.Pattern) {
	g := workload.RandomGraph(rng, 2+rng.Intn(25), nil)
	p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fcOps})
	switch ns {
	case "wrap":
		p = sparql.NS{P: p}
	case "union":
		q := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: fcOps})
		p = sparql.Union{L: sparql.NS{P: p}, R: sparql.NS{P: q}}
	}
	return g, p
}

// TestProfileDifferentialSerial: on random patterns × random graphs,
// the serial row engine's profile counters match the reference
// evaluator exactly, node for node.
func TestProfileDifferentialSerial(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8017))
			binds := 0
			for trial := 0; trial < 100; trial++ {
				g, p := profileTrial(rng, fc.ops, fc.ns)
				prof := obs.NewNode("query", "")
				rs, ok, err := sparql.EvalRows(g, p, sparql.NewBudget(context.Background()), sparql.ParOptions{Workers: 1, Prof: prof})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !ok {
					continue // schema too wide for the row engine
				}
				if want := sparql.Eval(g, p); !rs.MappingSet(g.Dict()).Equal(want) {
					t.Fatalf("trial %d: profiled eval diverges on\n%s", trial, p)
				}
				snap := prof.Snapshot()
				if len(snap.Children) != 1 {
					t.Fatalf("trial %d: root has %d children, want 1", trial, len(snap.Children))
				}
				binds += checkProfileNode(t, g, p, snap.Children[0])
			}
			if binds == 0 {
				t.Error("no trial bind-joined: the bind node went unchecked")
			}
		})
	}
}

// TestProfileDifferentialParallel is the same property under the
// parallel engine with every fan-out path forced (four workers,
// partition threshold one): the row counters must be schedule
// independent, and the pre-created child nodes must keep the profile
// tree congruent to the pattern tree.
func TestProfileDifferentialParallel(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8020))
			binds := 0
			for trial := 0; trial < 100; trial++ {
				g, p := profileTrial(rng, fc.ops, fc.ns)
				prof := obs.NewNode("query", "")
				opts := sparql.ParOptions{Workers: 4, MinPartition: 1, Prof: prof}
				rs, ok, err := sparql.EvalRows(g, p, sparql.NewBudget(context.Background()), opts)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !ok {
					continue
				}
				if want := sparql.Eval(g, p); !rs.MappingSet(g.Dict()).Equal(want) {
					t.Fatalf("trial %d: profiled parallel eval diverges on\n%s", trial, p)
				}
				snap := prof.Snapshot()
				if len(snap.Children) != 1 {
					t.Fatalf("trial %d: root has %d children, want 1", trial, len(snap.Children))
				}
				binds += checkProfileNode(t, g, p, snap.Children[0])
			}
			if binds == 0 {
				t.Error("no trial bind-joined: the bind node went unchecked")
			}
		})
	}
}

// TestProfileDedupHits pins the dedup counter on a join that produces
// duplicate rows: (?x p ?y) AND (?z p ?w) projected onto a shared
// variable is not needed — instead use a union of identical branches,
// where every row of the right branch is a dedup hit.
func TestProfileDedupHits(t *testing.T) {
	g := rdf.FromTriples(
		rdf.T("a", "p", "b"),
		rdf.T("b", "p", "c"),
		rdf.T("c", "p", "d"),
	)
	tp := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("p"), O: sparql.V("y")}
	p := sparql.Union{L: tp, R: tp}
	prof := obs.NewNode("query", "")
	rs, ok, err := sparql.EvalRows(g, p, sparql.NewBudget(context.Background()), sparql.ParOptions{Workers: 1, Prof: prof})
	if err != nil || !ok {
		t.Fatalf("eval: ok=%v err=%v", ok, err)
	}
	if rs.Len() != 3 {
		t.Fatalf("union of identical branches: %d rows, want 3", rs.Len())
	}
	snap := prof.Snapshot()
	union := snap.Find("union")
	if union == nil {
		t.Fatal("no union node in profile")
	}
	if union.DedupHits != 3 {
		t.Fatalf("dedup_hits=%d, want 3 (every right-branch row is a duplicate)", union.DedupHits)
	}
	if union.RowsIn != 6 || union.RowsOut != 3 {
		t.Fatalf("union rows_in=%d rows_out=%d, want 6/3", union.RowsIn, union.RowsOut)
	}
}
