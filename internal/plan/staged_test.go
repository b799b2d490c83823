package plan

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// matchCountingStore decorates a Store, counting MatchIDs scans.  The
// counter is atomic because the staged executor's workers probe
// concurrently.
type matchCountingStore struct {
	rdf.Store
	scans atomic.Int64
}

func (c *matchCountingStore) MatchIDs(s, p, o *rdf.ID, fn func(rdf.IDTriple) bool) {
	c.scans.Add(1)
	c.Store.MatchIDs(s, p, o, fn)
}

// findNode returns the first profile node with the given op and detail.
func findNode(p *obs.Profile, op, detail string) *obs.Profile {
	if p == nil {
		return nil
	}
	if p.Op == op && p.Detail == detail {
		return p
	}
	for _, c := range p.Children {
		if n := findNode(c, op, detail); n != nil {
			return n
		}
	}
	return nil
}

// TestStagedMatchesReferenceQuick is the staged executor's core
// differential property: on random AND chains (the shape that arms the
// adaptive driver) over random graphs, forced staged-parallel
// evaluation returns exactly the reference answer set.
func TestStagedMatchesReferenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		g := workload.RandomGraph(rng, 4+rng.Intn(25), nil)
		n := 3 + rng.Intn(4)
		var p sparql.Pattern = workload.RandomTriplePattern(rng, &workload.PatternOpts{})
		for i := 1; i < n; i++ {
			p = sparql.And{L: p, R: workload.RandomTriplePattern(rng, &workload.PatternOpts{})}
		}
		want := sparql.Eval(g, p)
		got := run(t, g, PrepareOpts(g, p, PlannerOptions{}), forcePar)
		if !sameRows(got, want) {
			t.Fatalf("trial %d: staged eval diverges on %s\ngot: %v\nwant:%v",
				trial, p, rowKeys(got), mappingKeys(want))
		}
	}
}

// TestStagedRouting pins the engine routing: an armed chain under the
// parallel gates runs on the staged executor (an "and" node with
// detail "staged" and a positive stage count appears on the profile),
// the NoReplan plan of the same query runs on the static tree, and the
// serial engine keeps the serial adaptive driver.  All three answer
// identically.
func TestStagedRouting(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(
		"(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)")
	want := sparql.Eval(s.G, q)
	pr := PrepareOpts(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}

	profiled := func(pr Prepared, o Options) *obs.Profile {
		prof := obs.NewNode("query", "")
		o.Prof = prof
		if !sameRows(run(t, s.G, pr, o), want) {
			t.Fatalf("answer diverges from reference under %+v", o)
		}
		return prof.Snapshot()
	}

	staged := profiled(pr, forcePar)
	node := findNode(staged, "and", "staged")
	if node == nil {
		t.Fatal("parallel adaptive run has no staged chain node on the profile")
	}
	if node.Stages < 1 {
		t.Fatalf("staged node records %d stages, want >=1", node.Stages)
	}

	static := profiled(PrepareOpts(s.G, q, PlannerOptions{NoReplan: true}), forcePar)
	if findNode(static, "and", "staged") != nil {
		t.Fatal("NoReplan run still produced a staged chain node")
	}

	serial := profiled(pr, Options{Parallel: 1})
	if findNode(serial, "and", "staged") != nil {
		t.Fatal("serial run produced a staged chain node")
	}
	if findNode(serial, "and", "adaptive") == nil {
		t.Fatal("serial run lost its adaptive chain node")
	}
}

// TestStagedEmptyPrefixShortCircuit pins satellite behaviour: when the
// first stage of a staged chain comes back empty, the remaining
// fan-out is cancelled — no morsels are dispatched for tail operands.
// The scan counter makes the short-circuit observable: a static tree
// over the four-operand chain scans every operand, the short-circuited
// staged run touches at most the first pair.
func TestStagedEmptyPrefixShortCircuit(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	// First operand matches nothing: the DP order puts the 0-cost scan
	// first, and the chain is long enough to stay armed.
	q := parser.MustParsePattern(
		"(?x nosuchpred nosuchvalue) AND (?x knows ?y) AND (?y knows ?z) AND (?z worksAt ?w)")
	pr := PrepareOpts(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}
	cs := &matchCountingStore{Store: s.G}
	prof := obs.NewNode("query", "")
	o := forcePar
	o.Prof = prof
	if got := run(t, cs, pr, o); got.Len() != 0 {
		t.Fatalf("expected empty answer, got %d rows", got.Len())
	}
	if findNode(prof.Snapshot(), "and", "staged") == nil {
		t.Fatal("empty-prefix query did not run on the staged executor")
	}
	// The empty first operand costs one scan; a merge attempt on the
	// first pair may add a second.  The two tail operands must never be
	// scanned.
	if n := cs.scans.Load(); n > 2 {
		t.Fatalf("%d index scans after an empty first stage, want <=2 (tail fan-out not cancelled)", n)
	}
}

// TestEmptyPrefixBeforeCompositeOperand: when the operand after the
// chain's first one is composite, the first operand is evaluated alone
// and an empty result ends the chain at the checkpoint, serially and
// staged — the composite operands (two OPTs and a UNION here) are
// never evaluated, so only the empty scan touches the index.
func TestEmptyPrefixBeforeCompositeOperand(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern("(?x nosuchpred nosuchvalue) AND ((?x knows ?y) OPT (?y email ?e)) AND " +
		"((?y knows ?z) OPT (?z email ?f)) AND ((?z worksAt ?w) UNION (?z livesIn ?w))")
	pr := PrepareOpts(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}
	if _, ok := pr.chain[0].(sparql.TriplePattern); !ok {
		t.Fatalf("fixture: the empty scan must lead the chain, got %s", pr.chain[0])
	}
	for _, o := range []Options{{Parallel: 1}, forcePar} {
		cs := &matchCountingStore{Store: s.G}
		if got := run(t, cs, pr, o); got.Len() != 0 {
			t.Fatalf("Parallel %d: expected empty answer, got %d rows", o.Parallel, got.Len())
		}
		if n := cs.scans.Load(); n > 1 {
			t.Fatalf("Parallel %d: %d index scans after an empty first operand, want <= 1", o.Parallel, n)
		}
	}
}

// TestStagedReplanAndBindJoin drives the staged parallel executor into
// both of its runtime decisions on the same setup as the serial
// adaptive test: the prefix far from its estimate must trigger a
// re-plan between stages, and the small observed prefix must flip the
// next stage to the parallel bind join — with the probes surfacing on
// the profile.
func TestStagedReplanAndBindJoin(t *testing.T) {
	g1, g2, q := movedPair()
	pr := PrepareOpts(g1, q, PlannerOptions{})
	prof := obs.NewNode("query", "")
	o := forcePar
	o.Prof = prof
	if got := run(t, g2, pr, o); !sameRows(got, sparql.Eval(g2, q)) {
		t.Fatal("staged adaptive answer differs from reference")
	}
	snap := prof.Snapshot()
	node := findNode(snap, "and", "staged")
	if node == nil {
		t.Fatal("no staged chain node on the profile")
	}
	if node.Replans < 1 {
		t.Errorf("expected >=1 replan on a prefix far from its estimate, got %d", node.Replans)
	}
	if node.Stages < 2 {
		t.Errorf("expected >=2 stages on a 4-operand chain, got %d", node.Stages)
	}
	if !hasOp(snap, "bindjoin") {
		t.Error("expected a bindjoin node on the profile (small prefix vs large predicate)")
	}
	if n := snap.Sum(func(p *obs.Profile) int64 { return p.BindProbes }); n < 1 {
		t.Errorf("expected >=1 recorded bind probe, got %d", n)
	}
}

// TestStagedDifferentialNoStaged extends the planner differential to
// the staged/static ablation axis on the parallel engine: every planner
// configuration must return the reference answers, the adaptive ones
// on the staged executor and the NoReplan and Greedy ones on the static
// parallel tree.
func TestStagedDifferentialNoStaged(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	rng := rand.New(rand.NewSource(31))
	var queries []sparql.Pattern
	for i := 0; i < 8; i++ {
		queries = append(queries, s.MixedQueries(rng, 1, nil)...)
	}
	queries = append(queries,
		parser.MustParsePattern("(?x0 follows ?x1) AND (?x1 mentors ?x2) AND (?x2 worksAt org_3)"),
		parser.MustParsePattern("(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)"),
		parser.MustParsePattern("((?x knows ?y) UNION (?x worksAt ?w)) AND (?x knows ?y) AND (?x worksAt ?w)"))
	for qi, q := range queries {
		want := sparql.Eval(s.G, q)
		for _, cfg := range plannerConfigs {
			if got := run(t, s.G, PrepareOpts(s.G, q, cfg.po), forcePar); !sameRows(got, want) {
				t.Fatalf("q%d %s under %s: %d rows, reference %d",
					qi, q, cfg.name, got.Len(), want.Len())
			}
		}
	}
}
