package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// countingStore decorates a Store, counting index probes: CountMatch
// (leaf counts) and CountMatchIDs (a pair probe's sampled rows), and
// the rows MatchIDs and SampleIDs hand out.
type countingStore struct {
	rdf.Store
	probes int
	rows   int
}

func (c *countingStore) MatchIDs(s, p, o *rdf.ID, fn func(rdf.IDTriple) bool) {
	c.Store.MatchIDs(s, p, o, func(t rdf.IDTriple) bool { c.rows++; return fn(t) })
}

func (c *countingStore) SampleIDs(s, p, o *rdf.ID, m int, fn func(rdf.IDTriple) bool) {
	c.Store.SampleIDs(s, p, o, m, func(t rdf.IDTriple) bool { c.rows++; return fn(t) })
}

func (c *countingStore) CountMatch(s, p, o *rdf.IRI) int {
	c.probes++
	return c.Store.CountMatch(s, p, o)
}

func (c *countingStore) CountMatchIDs(s, p, o *rdf.ID) int {
	c.probes++
	return c.Store.CountMatchIDs(s, p, o)
}

// TestPrepareProbeCount pins the estimator's memoization contract:
// planning a k-pattern query issues one leaf count per distinct
// triple pattern plus, for every two triples sharing a variable, one
// probe per sampled row of the smaller — min(|smaller|, pairSample) —
// each pair probed once, no matter how many orders the DP enumerates
// (2^k subsets for a connected component of size k).  Explain's probe
// count is the same number, within k + pairSample × pairs.
func TestPrepareProbeCount(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(
		`(?x livesIn city_1) AND (?x type Person) AND (?x email ?e) AND ` +
			`(?x worksAt org_2) AND (?x knows ?y) AND (?x name ?n) AND (?y knows ?z)`)
	ts := sparql.TriplePatterns(q)
	k := len(ts)
	if k != 7 {
		t.Fatalf("expected 7 patterns, got %d", k)
	}
	want, pairs := k, 0
	connected := func(a, b sparql.TriplePattern) bool {
		for _, v := range sparql.Vars(a) {
			if slices.Contains(sparql.Vars(b), v) {
				return true
			}
		}
		return false
	}
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if !connected(ts[i], ts[j]) {
				continue
			}
			pairs++
			want += min(int(math.Min(countLeaf(s.G, ts[i]), countLeaf(s.G, ts[j]))), pairSample)
		}
	}
	if pairs != 16 || want <= k+pairs {
		t.Fatalf("fixture: %d connected pairs and %d probes; the pairs must sample", pairs, want)
	}
	if bound := k + pairSample*pairs; want > bound {
		t.Fatalf("%d probes exceed k + %d·pairs = %d", want, pairSample, bound)
	}
	cs := &countingStore{Store: s.G}
	pr := PrepareOpts(cs, q, PlannerOptions{})
	if cs.probes != want {
		t.Fatalf("Prepare issued %d index probes for %d patterns and %d pairs, want exactly %d (memoized)",
			cs.probes, k, pairs, want)
	}
	ex := pr.Explain()
	if ex == nil {
		t.Fatal("prepared plan has no explain record")
	}
	if ex.Probes != want {
		t.Fatalf("Explain.Probes = %d, want %d", ex.Probes, want)
	}
	if len(ex.JoinOrder) != k {
		t.Fatalf("Explain.JoinOrder has %d scans, want %d", len(ex.JoinOrder), k)
	}
	// The greedy baseline orders on leaf counts alone.
	cs2 := &countingStore{Store: s.G}
	PrepareOpts(cs2, q, PlannerOptions{Greedy: true})
	if cs2.probes != k {
		t.Fatalf("greedy Prepare issued %d probes, want %d", cs2.probes, k)
	}
}

// TestPrepareRowsBounded: a pair probe reads at most pairSample rows
// of its smaller side, however large both sides are, so preparing a
// chain of all-variable patterns — every operand the whole graph —
// reads at most pairSample rows per connected pair and issues exactly
// k + pairSample·pairs probes.
func TestPrepareRowsBounded(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(`(?a ?p ?b) AND (?b ?q ?c) AND (?c ?r ?d) AND (?d ?s ?e) AND (?e ?t ?f)`)
	const k, pairs = 5, 4
	if n := s.G.Len(); n < 20*pairSample {
		t.Fatalf("fixture: %d triples, too few to tell a sample from a walk", n)
	}
	cs := &countingStore{Store: s.G}
	PrepareOpts(cs, q, PlannerOptions{})
	if cs.rows > pairSample*pairs {
		t.Fatalf("Prepare read %d rows for %d pairs, want at most %d", cs.rows, pairs, pairSample*pairs)
	}
	if want := k + pairSample*pairs; cs.probes != want {
		t.Fatalf("Prepare issued %d probes, want %d", cs.probes, want)
	}
}

// TestExplainWellDesigned checks the recorded well-designedness flag
// against the analysis package's verdict on the original (unoptimized)
// pattern, over the eight query shapes of the cluster differential
// suite — so plan optimization can never silently flip the property.
func TestExplainWellDesigned(t *testing.T) {
	queries := []string{
		"(?x knows ?y)",
		"(?x knows ?y) AND (?y knows ?z) AND (?z worksAt ?w)",
		"(?x knows ?y) UNION (?x worksAt ?y)",
		"(?x knows ?y) OPT (?y email ?e)",
		"((?x knows ?y) OPT (?y email ?e)) FILTER (!bound(?e))",
		"NS((?x worksAt ?w) UNION ((?x worksAt ?w) AND (?x email ?e)))",
		"SELECT {?x} WHERE (?x knows ?y) AND (?y worksAt ?w)",
		"(?x type v1) AND (?x knows ?y)",
	}
	g := rdf.NewGraph()
	g.Add("a", "knows", "b")
	g.Add("a", "worksAt", "w1")
	want := func(p sparql.Pattern) bool {
		if sparql.InFragment(p, sparql.FragmentAOF) {
			ok, err := analysis.IsWellDesigned(p)
			return err == nil && ok
		}
		if sparql.InFragment(p, sparql.FragmentAUOF) {
			ok, err := analysis.IsWellDesignedUnion(p)
			return err == nil && ok
		}
		return false
	}
	sawTrue, sawFalse := false, false
	for _, q := range queries {
		p := parser.MustParsePattern(q)
		ex := PrepareOpts(g, p, PlannerOptions{}).Explain()
		if ex == nil {
			t.Fatalf("%q: no explain record", q)
		}
		if w := want(p); ex.WellDesigned != w {
			t.Errorf("%q: recorded well_designed=%t, analysis says %t", q, ex.WellDesigned, w)
		}
		if ex.WellDesigned {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatalf("shape set must exercise both verdicts (true=%t false=%t)", sawTrue, sawFalse)
	}
}

// plannerConfigs are the ablation points every differential check runs.
var plannerConfigs = []struct {
	name string
	po   PlannerOptions
}{
	{"greedy", PlannerOptions{Greedy: true}},
	{"dp", PlannerOptions{NoReplan: true}},
	{"dp-adaptive", PlannerOptions{}},
	{"dp-eager-replan", PlannerOptions{ReplanFactor: 1.0000001}},
}

// TestPlannerDifferential: on the social workload (zipf skew, the
// shapes that arm merge joins, bind joins, short-circuits and
// replans), every planner configuration must return exactly the
// reference answer set on every fragment of the language, under both
// the serial and the parallel engine.
func TestPlannerDifferential(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 400})
	rng := rand.New(rand.NewSource(3))
	var queries []sparql.Pattern
	for i := 0; i < 12; i++ {
		queries = append(queries, s.MixedQueries(rng, 1, nil)...)
	}
	for _, q := range []string{
		// The non-AND fragments the chain executor must leave intact.
		"(?x knows ?y) UNION (?x worksAt ?y)",
		"((?x livesIn city_0) AND (?x knows ?y)) OPT (?y email ?e)",
		"((?x knows ?y) OPT (?y email ?e)) FILTER (!bound(?e))",
		"NS((?x worksAt ?w) UNION ((?x worksAt ?w) AND (?x email ?e)))",
		"SELECT {?x} WHERE (?x knows ?y) AND (?y worksAt ?w)",
		"(?x0 follows ?x1) AND (?x1 mentors ?x2) AND (?x2 worksAt org_3)",
		"(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)",
		// A chain joining rows of mixed domains: two UNION rows can
		// extend to the same answer.
		"((?x knows ?y) UNION (?x worksAt ?w)) AND (?x knows ?y) AND (?x worksAt ?w)",
	} {
		queries = append(queries, parser.MustParsePattern(q))
	}
	for qi, q := range queries {
		want := sparql.Eval(s.G, q)
		for _, cfg := range plannerConfigs {
			pr := PrepareOpts(s.G, q, cfg.po)
			for _, opts := range []Options{
				{Parallel: 1},
				{MinParallelEstimate: -1}, // force the parallel engine
			} {
				if got := run(t, s.G, pr, opts); !sameRows(got, want) {
					t.Fatalf("q%d %s under %s (parallel=%d): %d rows, reference %d",
						qi, q, cfg.name, opts.Parallel, got.Len(), want.Len())
				}
			}
		}
	}
}

// movedPair builds one query and two graphs with the same leaf
// counts: on the first, 2 of the 50 people living in cityA work at
// orgB; on the second, all 50 do.  A plan prepared on the first
// starts with that pair (its probe says 2 rows) and is still served on
// the second (Drifted counts leaves, and none moved), where the chain
// driver observes 50 rows after its first step — a statistic that
// moved under a cached plan, the case mid-query re-planning exists
// for now that pair sizes are probed, not modeled.
func movedPair() (prepared, moved *rdf.Graph, q sparql.Pattern) {
	build := func(orgFrom int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < 100; i++ {
			p := rdf.IRI(fmt.Sprintf("p%d", i))
			g.Add(p, "name", rdf.IRI(fmt.Sprintf("n%d", i)))
			for j := 1; j <= 5; j++ {
				g.Add(p, "knows", rdf.IRI(fmt.Sprintf("p%d", (i+j)%100)))
			}
			if i < 50 {
				g.Add(p, "livesIn", "cityA")
			} else {
				g.Add(p, "livesIn", "cityB")
			}
			if i >= orgFrom && i < orgFrom+50 {
				g.Add(p, "worksAt", "orgB")
			} else {
				g.Add(p, "worksAt", "orgC")
			}
		}
		return g
	}
	q = parser.MustParsePattern("(?x livesIn cityA) AND (?x worksAt orgB) AND (?x knows ?y) AND (?y name ?n)")
	return build(48), build(0), q
}

// TestAdaptiveReplanAndBindJoin drives the adaptive executor into both
// of its runtime decisions and checks they surface on the profile: a
// first pair whose observed cardinality is far outside the plan's
// estimate triggers a re-plan, and a small prefix against a large
// predicate switches the join to an index bind join.
func TestAdaptiveReplanAndBindJoin(t *testing.T) {
	g1, g2, q := movedPair()
	pr := PrepareOpts(g1, q, PlannerOptions{})
	if pr.Drifted(g2) {
		t.Fatal("fixture: the leaf counts moved")
	}
	prof := obs.NewNode("query", "")
	if got := run(t, g2, pr, Options{Parallel: 1, Prof: prof}); !sameRows(got, sparql.Eval(g2, q)) {
		t.Fatal("adaptive answer differs from reference")
	}
	snap := prof.Snapshot()
	if n := snap.Sum(func(p *obs.Profile) int64 { return p.Replans }); n < 1 {
		t.Errorf("expected >=1 replan on a prefix far from its estimate, got %d", n)
	}
	if !hasOp(snap, "bindjoin") {
		t.Error("expected a bindjoin node on the profile (small prefix vs large predicate)")
	}
}

func hasOp(p *obs.Profile, op string) bool {
	if p == nil {
		return false
	}
	if p.Op == op {
		return true
	}
	for _, c := range p.Children {
		if hasOp(c, op) {
			return true
		}
	}
	return false
}
