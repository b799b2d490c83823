package sparql_test

// The row engine appends where the algebra proves the rows distinct
// and looks them up where it cannot (DESIGN.md §6).  These tests hold
// it to "no RowSet ever holds a row twice" from outside: a duplicate
// check that uses none of the set's own machinery runs on every
// operator's output, on every execution path, and hand-written
// witnesses pin the operators that must keep deduplicating.

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// watchOperators installs the duplicate check on every operator output
// until the test ends and returns the number of outputs seen so far.
func watchOperators(t *testing.T) *atomic.Int64 {
	t.Helper()
	var seen atomic.Int64
	t.Cleanup(sparql.SetRowCheck(func(rs *sparql.RowSet) {
		seen.Add(1)
		if dup, found := rs.Duplicate(); found {
			t.Errorf("operator output holds a row twice: %s", dup)
		}
	}))
	return &seen
}

// randomChain draws an AND chain of 3–5 operands — the shape that arms
// the chain drivers — whose operands are triple patterns or, one time
// in three, small UNION/OPT patterns, so that prefixes of mixed
// domains reach the hash join and the bind join.
func randomChain(rng *rand.Rand) sparql.Pattern {
	operand := func() sparql.Pattern {
		if rng.Intn(3) == 0 {
			return workload.RandomPattern(rng, workload.PatternOpts{Depth: 1 + rng.Intn(2), Ops: []sparql.Op{sparql.OpUnion, sparql.OpOpt}})
		}
		return workload.RandomTriplePattern(rng, &workload.PatternOpts{})
	}
	p := operand()
	for i, n := 1, 3+rng.Intn(3); i < n; i++ {
		p = sparql.And{L: p, R: operand()}
	}
	return p
}

// TestNoOperatorOutputHoldsARowTwice: RandomPattern × RandomGraph over
// the five fragments, plus random chains, 300 seeds each, on the six
// execution paths — serial tree, serial tree bind-joining every triple
// right operand, static parallel tree with every partitioned operator
// forced, serial adaptive chain, staged chain, capped run —
// with the duplicate check on every operator output and the answer
// held to the reference evaluator.
func TestNoOperatorOutputHoldsARowTwice(t *testing.T) {
	seen := watchOperators(t)
	forcePar := plan.Options{Parallel: 4, MinParallelEstimate: -1, MinPartition: 1}
	paths := []struct {
		name string
		eval func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error)
	}{
		{"serial tree", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			rs, _, err := sparql.EvalRows(g, p, nil, serialOpts)
			return rs.MappingSet(g.Dict()), err
		}},
		{"tree bind", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			defer sparql.SetBindAlways()()
			rs, _, err := sparql.EvalRows(g, p, nil, serialOpts)
			return rs.MappingSet(g.Dict()), err
		}},
		{"static parallel tree", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			rs, _, err := sparql.EvalRows(g, p, nil, parTestOpts)
			return rs.MappingSet(g.Dict()), err
		}},
		{"adaptive chain", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{Parallel: 1})
			return rows.MappingSet(), err
		}},
		{"staged chain", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			rows, err := plan.Run(g, plan.Prepare(g, p), nil, forcePar)
			return rows.MappingSet(), err
		}},
		// A cap no answer reaches: every morsel and window of the
		// capped chain, and every capped UNION, runs to the end.
		{"capped run", func(g *rdf.Graph, p sparql.Pattern) (*sparql.MappingSet, error) {
			rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{Cap: 1 << 30})
			return rows.MappingSet(), err
		}},
	}
	type gen struct {
		name string
		draw func(rng *rand.Rand) sparql.Pattern
	}
	gens := []gen{{"chain", randomChain}}
	for _, fc := range fragmentCases() {
		gens = append(gens, gen{fc.name, func(rng *rand.Rand) sparql.Pattern {
			p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
			switch fc.ns {
			case "wrap":
				p = sparql.NS{P: p}
			case "union":
				q := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: fc.ops})
				p = sparql.Union{L: sparql.NS{P: p}, R: sparql.NS{P: q}}
			}
			return p
		}})
	}
	for _, gn := range gens {
		t.Run(gn.name, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				p := gn.draw(rng)
				if _, ok := sparql.SchemaFor(p); !ok {
					continue
				}
				want := sparql.Eval(g, p)
				for _, path := range paths {
					got, err := path.eval(g, p)
					if err != nil {
						t.Fatalf("seed %d, %s: %v\n%s", seed, path.name, err, p)
					}
					if !got.Equal(want) {
						t.Fatalf("seed %d, %s diverges on\n%s\ngot: %v\nwant:%v", seed, path.name, p, got, want)
					}
					if t.Failed() {
						t.Fatalf("seed %d, %s, on\n%s", seed, path.name, p)
					}
				}
			}
		})
	}
	if seen.Load() == 0 {
		t.Fatal("the duplicate check never ran")
	}
}

// TestRowAlgebraOutputsAreSets runs each RowSet operator on random
// operand sets of mixed domains — where nearly every distinctness
// argument fails and the table must catch the duplicates — and holds
// the output to the string algebra in size as well as content (a
// MappingSet drops duplicates on conversion, a count does not).
func TestRowAlgebraOutputsAreSets(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	vars := []sparql.Var{"A", "B", "C", "D"}
	sc, _ := sparql.NewVarSchema(vars)
	randSet := func(d *rdf.Dict, uniform bool) (*sparql.MappingSet, *sparql.RowSet) {
		ms := sparql.NewMappingSet()
		dom := vars[:1+rng.Intn(len(vars))]
		for i, n := 0, rng.Intn(25); i < n; i++ {
			mu := randomMapping(rng, vars, workload.DefaultIRIs)
			if uniform {
				mu = sparql.Mapping{}
				for _, v := range dom {
					mu[v] = workload.DefaultIRIs[rng.Intn(len(workload.DefaultIRIs))]
				}
			}
			ms.Add(mu)
		}
		rs, ok := sparql.EncodeMappingSet(ms, sparql.Codec{Schema: sc, Dict: d})
		if !ok {
			t.Fatal("encode failed")
		}
		return ms, rs
	}
	for trial := 0; trial < 400; trial++ {
		d := rdf.NewDict()
		m1, r1 := randSet(d, trial%4 == 1 || trial%4 == 3)
		m2, r2 := randSet(d, trial%4 == 2 || trial%4 == 3)
		check := func(op string, got *sparql.RowSet, want *sparql.MappingSet) {
			t.Helper()
			if dup, found := got.Duplicate(); found {
				t.Fatalf("%s: %s\nΩ1: %v\nΩ2: %v", op, dup, m1, m2)
			}
			if got.Len() != want.Len() || !got.MappingSet(d).Equal(want) {
				t.Fatalf("%s diverges\nΩ1: %v\nΩ2: %v\ngot: %v\nwant:%v", op, m1, m2, got.MappingSet(d), want)
			}
		}
		check("Join", r1.Join(r2), m1.Join(m2))
		check("Union", r1.Union(r2), m1.Union(m2))
		check("Diff", r1.Diff(r2), m1.Diff(m2))
		check("LeftJoin", r1.LeftJoin(r2), m1.LeftJoin(m2))
		check("Maximal", r1.Union(r2).Maximal(), m1.Union(m2).MaximalNaive())
		proj := vars[rng.Intn(2) : 2+rng.Intn(3)]
		check("Project", r1.Project(sc.SlotMask(proj)), m1.Project(proj))
		cond := workload.RandomCondition(rng, 2, &workload.PatternOpts{Vars: vars})
		check("Filter", r1.Filter(sparql.CompileCond(cond, sc, d)), m1.Filter(cond))
	}
}

// TestBindJoinOverMixedDomains: a random UNION/OPT prefix bind-joined
// with a random triple pattern, serial and in morsels, is a set and
// equals the hash join.
func TestBindJoinOverMixedDomains(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomGraph(rng, 5+rng.Intn(30), nil)
		accPat := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: []sparql.Op{sparql.OpUnion, sparql.OpOpt, sparql.OpAnd}})
		probe := workload.RandomTriplePattern(rng, &workload.PatternOpts{})
		sc, ok := sparql.SchemaFor(sparql.And{L: accPat, R: probe})
		if !ok {
			continue
		}
		acc, err := sparql.EvalPatternRows(g, accPat, sc)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := sparql.EvalPatternRows(g, probe, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := acc.Join(scan)
		for _, workers := range []int{1, 4} {
			got, err := sparql.BindJoinScanPar(g, acc, probe, nil, workers, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dup, found := got.Duplicate(); found {
				t.Fatalf("seed %d, %d workers: %s\nacc: %s\nprobe: %s", seed, workers, dup, accPat, probe)
			}
			if got.Len() != want.Len() || !got.MappingSet(g.Dict()).Equal(want.MappingSet(g.Dict())) {
				t.Fatalf("seed %d, %d workers: bind join %v, hash join %v\nacc: %s\nprobe: %s",
					seed, workers, got.MappingSet(g.Dict()), want.MappingSet(g.Dict()), accPat, probe)
			}
		}
	}
}

// rowsOf encodes the mappings, in order, over schema {x, y, z}.
func rowsOf(t *testing.T, d *rdf.Dict, mus ...sparql.Mapping) *sparql.RowSet {
	t.Helper()
	sc, _ := sparql.NewVarSchema([]sparql.Var{"x", "y", "z"})
	ms := sparql.NewMappingSet()
	for _, mu := range mus {
		ms.Add(mu)
	}
	rs, ok := sparql.EncodeMappingSet(ms, sparql.Codec{Schema: sc, Dict: d})
	if !ok || rs.Len() != len(mus) {
		t.Fatalf("encoding %v", mus)
	}
	return rs
}

// TestOperatorsThatMustStillDeduplicate: the inputs on which an
// append-only operator would be wrong.
func TestOperatorsThatMustStillDeduplicate(t *testing.T) {
	type M = sparql.Mapping
	d := rdf.NewDict()
	expect := func(name string, got *sparql.RowSet, want ...M) {
		t.Helper()
		if dup, found := got.Duplicate(); found {
			t.Errorf("%s: %s", name, dup)
		}
		ws := sparql.NewMappingSet()
		for _, mu := range want {
			ws.Add(mu)
		}
		if got.Len() != len(want) || !got.MappingSet(d).Equal(ws) {
			t.Errorf("%s = %v (%d rows), want %v", name, got.MappingSet(d), got.Len(), ws)
		}
	}

	// ⋈ over mixed domains: {x→a} ∪ {y→b} and {x→a,y→b} ∪ {} are the
	// same mapping.
	l := rowsOf(t, d, M{"x": "a"}, M{"x": "a", "y": "b"})
	r := rowsOf(t, d, M{"y": "b"}, M{})
	expect("heterogeneous join", l.Join(r), M{"x": "a", "y": "b"}, M{"x": "a"})
	expect("heterogeneous join, swapped", r.Join(l), M{"x": "a", "y": "b"}, M{"x": "a"})
	if !l.Join(r).TableBuilt() {
		t.Error("a join of mixed domains appended without a membership table")
	}

	// ⟕ whose left side mixes domains: the merged rows collide exactly
	// as in the join, and nothing is left unmatched.
	expect("heterogeneous left join", l.LeftJoin(r), M{"x": "a", "y": "b"}, M{"x": "a"})
	// … and with an unmatched left row of a third domain beside them.
	l3 := rowsOf(t, d, M{"x": "a"}, M{"x": "a", "y": "b"}, M{"y": "c", "z": "c"})
	expect("heterogeneous left join with an unmatched row", l3.LeftJoin(rowsOf(t, d, M{"y": "b"}, M{"x": "a", "y": "b"})),
		M{"x": "a", "y": "b"}, M{"y": "c", "z": "c"})

	// Bind join over a prefix of mixed domains: {x→a} probes (a p ?y)
	// and {x→a,y→b} probes (a p b), and both come back {x→a,y→b}.
	g := rdf.FromTriples(rdf.T("a", "p", "b"), rdf.T("a", "p", "c"))
	acc := rowsOf(t, g.Dict(), M{"x": "a"}, M{"x": "a", "y": "b"})
	probe := sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("p"), O: sparql.V("y")}
	for _, workers := range []int{1, 4} {
		bj, err := sparql.BindJoinScanPar(g, acc, probe, nil, workers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dup, found := bj.Duplicate(); found || bj.Len() != 2 {
			t.Errorf("heterogeneous bind join, %d workers: %d rows, %s", workers, bj.Len(), dup)
		}
	}

	// UNION of overlapping masks: the shared row once.
	u1 := rowsOf(t, d, M{"x": "a"}, M{"x": "b"}, M{"x": "a", "y": "b"})
	u2 := rowsOf(t, d, M{"x": "b"}, M{"x": "c"}, M{"y": "b"})
	got := u1.Union(u2)
	expect("overlapping union", got, M{"x": "a"}, M{"x": "b"}, M{"x": "a", "y": "b"}, M{"x": "c"}, M{"y": "b"})
	if got.DedupHits() != 1 {
		t.Errorf("overlapping union: %d rejections, want 1", got.DedupHits())
	}
	// UNION of masks that cannot coincide: concatenated, no table on
	// either side or on the output.
	c1 := rowsOf(t, d, M{"x": "a"}, M{"x": "b"})
	c2 := rowsOf(t, d, M{"x": "a", "y": "a"}, M{"x": "a", "y": "b"})
	got = c1.Union(c2)
	expect("disjoint-domain union", got, M{"x": "a"}, M{"x": "b"}, M{"x": "a", "y": "a"}, M{"x": "a", "y": "b"})

	// SELECT collapsing rows.
	s := rowsOf(t, d, M{"x": "a", "y": "a"}, M{"x": "a", "y": "b"}, M{"x": "b", "y": "b"}, M{"y": "c"})
	sc := s.Schema
	expect("collapsing select", s.Project(sc.SlotMask([]sparql.Var{"x"})), M{"x": "a"}, M{"x": "b"}, M{})
	// SELECT that drops nothing: the set itself.
	if s.Project(sc.SlotMask([]sparql.Var{"x", "y"})) != s {
		t.Error("a projection that keeps every bound slot copied the set")
	}

	// NS over one domain, Ω ∖ ∅: the operand itself.
	if c2.Maximal() != c2 {
		t.Error("single-domain NS copied the set")
	}
	if c2.Diff(rowsOf(t, d)) != c2 {
		t.Error("Ω ∖ ∅ copied the set")
	}
}

// TestTableIsLazy: a set that is only appended to and read never
// builds its membership table; the first Add or Contains builds it
// over every row, appended ones included.
func TestTableIsLazy(t *testing.T) {
	d := rdf.NewDict()
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	sc, _ := sparql.NewVarSchema([]sparql.Var{"x", "y"})
	rs := sparql.NewRowSet(sc)
	for i := 0; i < 100; i++ {
		rs.Push([]rdf.ID{rdf.ID(i + 10), a}, 0b11)
	}
	rs.Push([]rdf.ID{b, 0}, 0b01)
	if rs.TableBuilt() {
		t.Fatal("appending built the membership table")
	}
	if rs.Contains([]rdf.ID{c, c}, 0b10) || rs.TableBuilt() {
		t.Fatal("a row of a domain the set does not have needed the table")
	}
	if !rs.Contains([]rdf.ID{rdf.ID(57), a}, 0b11) || !rs.TableBuilt() {
		t.Fatal("an appended row is not in the set")
	}
	if rs.Add([]rdf.ID{b, c}, 0b01) || rs.DedupHits() != 1 {
		t.Fatal("Add accepted a row that was appended earlier (unbound slots must not matter)")
	}
	rs.Push([]rdf.ID{c, c}, 0b11)
	if rs.Add([]rdf.ID{c, c}, 0b11) || !rs.Add([]rdf.ID{c, a}, 0b11) || rs.Len() != 103 {
		t.Fatal("rows appended after the table was built are not looked up")
	}
	if dup, found := rs.Duplicate(); found {
		t.Fatal(dup)
	}
}
