package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

type rdfTriple = rdf.Triple

var rdfT = rdf.T

// ask runs p as an ASK query: Run on a Compiled with Ask set.
func ask(g rdf.Store, p sparql.Pattern, b *sparql.Budget) (bool, error) {
	a, err := Run(g, Compile(g, p, nil, true), b, plan.Options{})
	if err != nil {
		return false, err
	}
	return *a.Bool, nil
}

// mustAsk is ask with no budget, failing the test on an error.
func mustAsk(t testing.TB, g rdf.Store, p sparql.Pattern) bool {
	t.Helper()
	found, err := ask(g, p, nil)
	if err != nil {
		t.Fatalf("ASK %s: %v", p, err)
	}
	return found
}

// mustLimit is Limit with no budget, failing the test on an error.
func mustLimit(t testing.TB, g rdf.Store, p sparql.Pattern, k int) *sparql.MappingSet {
	t.Helper()
	out, err := Limit(g, p, k, nil, plan.Options{})
	if err != nil {
		t.Fatalf("Limit %s: %v", p, err)
	}
	return out
}

// mustContain is ConstructContains with no budget, failing the test on
// an error.
func mustContain(t testing.TB, g rdf.Store, q sparql.ConstructQuery, tr rdf.Triple) bool {
	t.Helper()
	found, err := ConstructContains(g, q, tr, nil, plan.Options{})
	if err != nil {
		t.Fatalf("ConstructContains %s: %v", q, err)
	}
	return found
}

// cappedInput draws a pattern for the capped-run differentials: one
// of the five fragments of the row-engine suites (AF, AUFS, SP, USP,
// full); an OPT or NS subtree under a root FILTER (bound(?X)) — ASK
// below the root, where the cap cannot reach the subtree; or an AND
// chain of three to five small operands, which runs on the capped
// chain driver.
func cappedInput(rng *rand.Rand) sparql.Pattern {
	aufs := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}
	draw := func(depth int, ops ...sparql.Op) sparql.Pattern {
		return workload.RandomPattern(rng, workload.PatternOpts{Depth: depth, Ops: ops})
	}
	switch rng.Intn(7) {
	case 0:
		return draw(3, sparql.OpAnd, sparql.OpFilter)
	case 1:
		return draw(3, aufs...)
	case 2:
		return sparql.NS{P: draw(3, aufs...)}
	case 3:
		return sparql.Union{L: sparql.NS{P: draw(2, sparql.OpAnd, sparql.OpFilter, sparql.OpSelect)}, R: sparql.NS{P: draw(2, sparql.OpAnd, sparql.OpFilter, sparql.OpSelect)}}
	case 4:
		return draw(3)
	case 5:
		var sub sparql.Pattern = sparql.NS{P: draw(2)}
		if rng.Intn(2) == 0 {
			sub = sparql.Opt{L: draw(2), R: draw(2)}
		}
		return sparql.Filter{P: sub, Cond: sparql.Bound{X: "X"}}
	}
	ops := make([]sparql.Pattern, 3+rng.Intn(3))
	for i := range ops {
		ops[i] = draw(1)
	}
	return sparql.AndOf(ops...)
}

// selectRows is the full answer of p's plan, the reference the capped
// runs are held to.
func selectRows(t testing.TB, g rdf.Store, p sparql.Pattern) *sparql.MappingSet {
	t.Helper()
	rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{})
	if err != nil {
		t.Fatalf("SELECT %s: %v", p, err)
	}
	return rows.MappingSet()
}

// rowCounts decodes every row of an answer on its own, so that a
// duplicate row shows as a count above one.
func rowCounts(r sparql.Rows) map[string]int {
	out := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		mu := sparql.Mapping{}
		for j, v := range r.Vars {
			if r.Masks[i*r.Words+j/64]&(1<<uint(j%64)) != 0 {
				mu[v] = r.Dict.IRI(r.IDs[i*len(r.Vars)+j])
			}
		}
		out[mu.String()]++
	}
	return out
}

// checkLimit fails unless a capped run of p's plan, compared as a row
// multiset, holds min(k, |SELECT|) distinct rows of SELECT, and unless
// Limit(k) returns exactly such a set.
func checkLimit(t testing.TB, g rdf.Store, p sparql.Pattern, k int, full *sparql.MappingSet) bool {
	t.Helper()
	want := min(k, full.Len())
	rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{Cap: k})
	if err != nil {
		t.Fatalf("capped run %s: %v", p, err)
	}
	fullKeys := rowCounts(sparql.RowsOf(full))
	counts := rowCounts(rows)
	if rows.Len() != want || len(counts) != want {
		t.Logf("pattern %s k=%d: %d rows, %d distinct, want %d", p, k, rows.Len(), len(counts), want)
		return false
	}
	for key, n := range counts {
		if n != 1 || fullKeys[key] != 1 {
			t.Logf("pattern %s k=%d: row %s ×%d, in SELECT ×%d", p, k, key, n, fullKeys[key])
			return false
		}
	}
	got := mustLimit(t, g, p, k)
	if got.Len() != want {
		t.Logf("pattern %s: Limit(%d) = %d rows, want %d", p, k, got.Len(), want)
		return false
	}
	for _, mu := range got.Mappings() {
		if !full.Contains(mu) {
			t.Logf("pattern %s: Limit(%d) returned non-answer %s", p, k, mu)
			return false
		}
	}
	return true
}

// TestLimitAllMatchesEvalQuick: Limit with k < 0 enumerates exactly the
// reference answer set, and Limit(k) is min(k, |SELECT|) distinct rows
// of SELECT, on the capped-run inputs.
func TestLimitAllMatchesEvalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := cappedInput(rng)
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		want := sparql.Eval(g, p)
		got := mustLimit(t, g, p, -1)
		if !got.Equal(want) {
			t.Logf("pattern %s\ngraph\n%s\nwant %v\ngot  %v", p, g, want, got)
			return false
		}
		return checkLimit(t, g, p, 1+rng.Intn(5), want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAskMatchesEvalQuick: ASK is the capped run's emptiness, and
// agrees with SELECT on the same plan and with the reference.
func TestAskMatchesEvalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := cappedInput(rng)
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		got := mustAsk(t, g, p)
		if sel := selectRows(t, g, p).Len() > 0; got != sel || got != (sparql.Eval(g, p).Len() > 0) {
			t.Logf("pattern %s: ASK = %v, SELECT non-empty = %v", p, got, sel)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLimitCounts: Limit(k) on a join and on a chain long enough for
// the chain driver returns min(k, total) distinct genuine answers.
func TestLimitCounts(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 100, OptionalPct: 50, Seed: 1})
	for _, tc := range []struct {
		p     string
		total int
	}{
		{`(?p name ?n) AND (?p works_at ?u)`, 100},
		{`(?p name ?n) AND (?p works_at ?u) AND (?u type University) AND (?p was_born_in ?c)`, 100},
	} {
		p := parser.MustParsePattern(tc.p)
		full := sparql.Eval(g, p)
		if full.Len() != tc.total {
			t.Fatalf("%s: total = %d", tc.p, full.Len())
		}
		if got := mustLimit(t, g, p, 0); got.Len() != 0 {
			t.Errorf("Limit(0).Len() = %d", got.Len())
		}
		for _, k := range []int{1, 7, 100, 1000, 1 << 40} {
			if !checkLimit(t, g, p, k, full) {
				t.Errorf("%s: Limit(%d) broke the contract", tc.p, k)
			}
		}
	}
}

func TestLimitDistinctUnderSelect(t *testing.T) {
	// SELECT projections collapse; the limit must count distinct
	// projected mappings, not underlying solutions.
	g := workload.University(workload.UniversityOpts{People: 50, OptionalPct: 100, Seed: 2})
	// Every person works at university_0 or _1; the projection has at
	// most a couple of distinct answers.
	p := parser.MustParsePattern(`SELECT {?u} WHERE (?p works_at ?u)`)
	total := sparql.Eval(g, p).Len()
	got := mustLimit(t, g, p, total+5)
	if got.Len() != total {
		t.Fatalf("Limit over-counted projections: %d vs %d", got.Len(), total)
	}
}

func TestAskEarlyOnHugeGraph(t *testing.T) {
	// Ask on a selective pattern over a large graph must find the single
	// witness; correctness check (the speed is measured in E23).
	g := workload.University(workload.UniversityOpts{People: 3000, OptionalPct: 50, Seed: 3})
	p := parser.MustParsePattern(`(?p name Name_1234) AND (?p works_at ?u)`)
	if !mustAsk(t, g, p) {
		t.Fatal("existing witness not found")
	}
	q := parser.MustParsePattern(`(?p name Name_1234) AND (?p works_at nowhere)`)
	if mustAsk(t, g, q) {
		t.Fatal("nonexistent witness found")
	}
}

func TestAskWithOptAndNS(t *testing.T) {
	g := workload.Figure2G2()
	p := parser.MustParsePattern(`(?X was_born_in Chile) OPT (?X email ?Y)`)
	if !mustAsk(t, g, p) {
		t.Fatal("OPT pattern with answers reported empty")
	}
	ns := parser.MustParsePattern(`NS((?X was_born_in Peru))`)
	if mustAsk(t, g, ns) {
		t.Fatal("empty NS pattern reported non-empty")
	}
}

// TestConstructContainsQuick: CONSTRUCT membership agrees with
// membership in sparql.EvalConstruct's output, on the capped-run
// inputs.
func TestConstructContainsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := cappedInput(rng)
		vars := sparql.Vars(p)
		tmpl := []sparql.TriplePattern{sparql.TP(sparql.I("s"), sparql.I("p"), sparql.I("o"))}
		if len(vars) > 0 {
			tmpl = append(tmpl, sparql.TP(
				sparql.V(vars[rng.Intn(len(vars))]), sparql.I("rel"), sparql.V(vars[rng.Intn(len(vars))])))
		}
		q := sparql.ConstructQuery{Template: tmpl, Where: p}
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		full := sparql.EvalConstruct(g, q)
		// Every produced triple is found...
		ok := true
		full.ForEach(func(tr rdfTriple) bool {
			if !mustContain(t, g, q, tr) {
				t.Logf("produced triple %v not found for %s", tr, q)
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		// ...and random probes agree with the full output.
		iris := append(workload.DefaultIRIs, "rel", "s", "p", "o")
		for i := 0; i < 10; i++ {
			probe := rdfT(iris[rng.Intn(len(iris))], iris[rng.Intn(len(iris))], iris[rng.Intn(len(iris))])
			if mustContain(t, g, q, probe) != full.ContainsTriple(probe) {
				t.Logf("probe %v disagrees for %s", probe, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// countingStore counts CountMatch calls: the index probes the planner
// estimates cardinalities with.
type countingStore struct {
	rdf.Store
	probes int
}

func (c *countingStore) CountMatch(s, p, o *rdf.IRI) int {
	c.probes++
	return c.Store.CountMatch(s, p, o)
}

// TestPlanOnce: Limit and ConstructContains plan their pattern once —
// they issue the index probes of one plan.Prepare — including on the
// paths that materialize the answer through plan.Run: an OPT root for
// Limit, and a WHERE clause wider than the row engine, with two
// template triples to try, for ConstructContains.
func TestPlanOnce(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 40, OptionalPct: 50, Seed: 5})
	probes := func(f func(rdf.Store)) int {
		cs := &countingStore{Store: g}
		f(cs)
		return cs.probes
	}
	opt := parser.MustParsePattern(`((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	prepare := probes(func(s rdf.Store) { plan.Prepare(s, opt) })
	if prepare == 0 {
		t.Fatal("Prepare issued no probes")
	}
	limit := probes(func(s rdf.Store) { mustLimit(t, s, opt, 3) })
	if limit != prepare {
		t.Errorf("Limit on an OPT root issued %d probes, one Prepare issues %d", limit, prepare)
	}

	wg := wideGraph()
	q := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{
			sparql.TP(sparql.V("v1"), sparql.I("link"), sparql.V("v0")),
			sparql.TP(sparql.V("v0"), sparql.I("link"), sparql.V("v69")),
		},
		Where: widePattern(),
	}
	target := rdf.T("n0", "link", "n69")
	cs := &countingStore{Store: wg}
	plan.Prepare(cs, q.Where)
	prepare = cs.probes
	cs = &countingStore{Store: wg}
	if !mustContain(t, cs, q, target) {
		t.Fatalf("%v not found", target)
	}
	if cs.probes != prepare {
		t.Errorf("wide ConstructContains issued %d probes, one Prepare issues %d", cs.probes, prepare)
	}
}

// TestAskStepsOnMixedSample: ASK keeps its early exit without paying
// for it anywhere, on 200 star/chain/tree/flower queries over the
// 2000-person social graph, measured in budget steps (deterministic,
// unlike time).  Every ASK takes at most 1.25x the steps of the full
// run of its plan, and the median ASK that finds an answer at most a
// quarter of them.
func TestAskStepsOnMixedSample(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 2000, Seed: 1})
	var trueRatios []float64
	for i, p := range s.MixedQueries(rand.New(rand.NewSource(1)), 200, nil) {
		c := Compile(s.G, p, nil, true)
		sb := sparql.NewBudget(nil)
		rows, err := plan.Run(s.G, c.Prepared, sb, plan.Options{})
		if err != nil {
			t.Fatalf("query %d SELECT: %v", i, err)
		}
		ab := sparql.NewBudget(nil)
		a, err := Run(s.G, c, ab, plan.Options{})
		if err != nil {
			t.Fatalf("query %d ASK: %v", i, err)
		}
		if *a.Bool != (rows.Len() > 0) {
			t.Fatalf("query %d: ASK = %v with %d answers: %s", i, *a.Bool, rows.Len(), p)
		}
		ratio := float64(ab.Steps()) / float64(sb.Steps())
		if ratio > 1.25 {
			t.Errorf("query %d: ASK %d steps, SELECT %d: %s", i, ab.Steps(), sb.Steps(), p)
		}
		if *a.Bool {
			trueRatios = append(trueRatios, ratio)
		}
	}
	sort.Float64s(trueRatios)
	if len(trueRatios) == 0 {
		t.Fatal("no query of the sample has an answer")
	}
	if med := trueRatios[len(trueRatios)/2]; med > 0.25 {
		t.Errorf("median true ASK takes %.3f of its SELECT's steps, want ≤ 0.25", med)
	}
}
