package plan

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// matchCountingStore decorates a Store, counting MatchIDs scans.
type matchCountingStore struct {
	rdf.Store
	scans int
}

func (c *matchCountingStore) MatchIDs(s, p, o *rdf.ID, fn func(rdf.IDTriple) bool) {
	c.scans++
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

// TestStagedMatchesReferenceQuick is the chain executor's core
// differential property: on random AND chains (the shape that arms the
// adaptive driver) over random graphs, the chain driver returns
// exactly the reference answers, every row once.
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
		got := run(t, g, PrepareOpts(g, p, PlannerOptions{}), Options{})
		if !sameRows(got, want) {
			t.Fatalf("trial %d: chain eval diverges on %s\ngot: %v\nwant:%v",
				trial, p, rowKeys(got), mappingKeys(want))
		}
	}
}

// TestStagedRouting pins the engine routing: an armed chain runs on the
// chain driver (an "and" node with detail "adaptive" appears on the
// profile), the NoReplan plan of the same query runs on the tree
// evaluator, and a capped run drives the chain in morsels (detail
// "capped").  The first two answer identically, the capped one with
// one of the answers.
func TestStagedRouting(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(
		"(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)")
	want := sparql.Eval(s.G, q)
	pr := PrepareOpts(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}

	profiled := func(pr Prepared, o Options) (sparql.Rows, *obs.Profile) {
		prof := obs.NewNode("query", "")
		o.Prof = prof
		rows := run(t, s.G, pr, o)
		return rows, prof.Snapshot()
	}

	rows, chain := profiled(pr, Options{})
	if !sameRows(rows, want) {
		t.Fatal("chain answer diverges from reference")
	}
	if findNode(chain, "and", "adaptive") == nil {
		t.Fatal("armed chain has no adaptive chain node on the profile")
	}

	rows, tree := profiled(PrepareOpts(s.G, q, PlannerOptions{NoReplan: true}), Options{})
	if !sameRows(rows, want) {
		t.Fatal("tree answer diverges from reference")
	}
	if findNode(tree, "and", "adaptive") != nil {
		t.Fatal("NoReplan run still produced an adaptive chain node")
	}

	rows, capped := profiled(pr, Options{Cap: 1})
	if findNode(capped, "and", "capped") == nil {
		t.Fatal("capped run has no capped chain node on the profile")
	}
	if want.Len() == 0 || rows.Len() != 1 || !want.Contains(rows.MappingSet().Mappings()[0]) {
		t.Fatalf("capped run: %d rows of %d answers", rows.Len(), want.Len())
	}
}

// TestStagedEmptyPrefixShortCircuit: when the first stage of a chain
// comes back empty, the tail operands are never evaluated.  The scan
// counter makes the short-circuit observable: a tree over the
// four-operand chain scans every operand, the short-circuited chain
// touches at most the first pair.
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
	if got := run(t, cs, pr, Options{Prof: prof}); got.Len() != 0 {
		t.Fatalf("expected empty answer, got %d rows", got.Len())
	}
	if findNode(prof.Snapshot(), "and", "adaptive") == nil {
		t.Fatal("empty-prefix query did not run on the chain driver")
	}
	// The empty first operand costs one scan; a merge attempt on the
	// first pair may add a second.  The two tail operands must never be
	// scanned.
	if n := cs.scans; n > 2 {
		t.Fatalf("%d index scans after an empty first stage, want <=2 (tail fan-out not cancelled)", n)
	}
}

// TestEmptyPrefixBeforeCompositeOperand: when the operand after the
// chain's first one is composite, the first operand is evaluated alone
// and an empty result ends the chain at the checkpoint — the composite
// operands (two OPTs and a UNION here) are never evaluated, so only the
// empty scan touches the index.
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
	cs := &matchCountingStore{Store: s.G}
	if got := run(t, cs, pr, Options{}); got.Len() != 0 {
		t.Fatalf("expected empty answer, got %d rows", got.Len())
	}
	if n := cs.scans; n > 1 {
		t.Fatalf("%d index scans after an empty first operand, want <= 1", n)
	}
}

// TestStagedDifferentialNoStaged holds the chain executor to the
// reference on the social workload with no staged fan-out behind it:
// every planner configuration must return the reference answers, every
// row once, the adaptive ones on the serial chain driver and the
// NoReplan and Greedy ones on the tree evaluator.
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
			if got := run(t, s.G, PrepareOpts(s.G, q, cfg.po), Options{}); !sameRows(got, want) {
				t.Fatalf("q%d %s under %s: %d rows, reference %d",
					qi, q, cfg.name, got.Len(), want.Len())
			}
		}
	}
}
