package nssparql

// One benchmark per experiment of EXPERIMENTS.md (the E-numbers match
// DESIGN.md §4).  Run with:
//
//	go test -bench=. -benchmem .
//
// The absolute numbers are machine-dependent; EXPERIMENTS.md records
// the *shapes* that reproduce the paper's claims (exponential growth
// for the Section 7 hard fragments, polynomial behaviour elsewhere).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fol"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/reduction"
	"repro/internal/sat"
	"repro/internal/sparql"
	"repro/internal/transform"
	"repro/internal/views"
	"repro/internal/wdpt"
	"repro/internal/workload"
)

func BenchmarkE1_Figure1Query(b *testing.B) {
	g := workload.Figure1()
	p := parser.MustParsePattern(`SELECT {?p} WHERE
		(?o stands_for sharing_rights) AND
		((?p founder ?o) UNION (?p supporter ?o))`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sparql.Eval(g, p).Len() != 4 {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkE2_OptVsNS(b *testing.B) {
	opt := parser.MustParsePattern(`((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	ns := transform.OptToNS(opt)
	for _, size := range []int{100, 500, 2000} {
		g := workload.University(workload.UniversityOpts{People: size, OptionalPct: 50, Seed: 1})
		for _, c := range []struct {
			name string
			p    sparql.Pattern
		}{{"OPT", opt}, {"NS", ns}} {
			b.Run(fmt.Sprintf("%s/people=%d", c.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sparql.Eval(g, c.p)
				}
			})
		}
	}
}

func BenchmarkE4_Thm35Witness(b *testing.B) {
	p := parser.MustParsePattern(
		`(((a b c) OPT (?X d e)) OPT (?Y f g)) FILTER (bound(?X) || bound(?Y))`)
	g := rdf.FromTriples(rdf.T("a", "b", "c"), rdf.T("l", "d", "e"), rdf.T("m", "f", "g"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sparql.Eval(g, p)
	}
}

func BenchmarkE6_FOTranslation(b *testing.B) {
	p := parser.MustParsePattern(`(?X was_born_in Chile) OPT (?X email ?Y)`)
	g := workload.Figure2G2()
	st := fol.NewStructure(g, sparql.IRIs(p))
	b.Run("translate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fol.Translate(p)
		}
	})
	phi := fol.Translate(p)
	vars := sparql.Vars(p)
	b.Run("answers-from-formula", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fol.AnswersFromFormula(st, phi, vars)
		}
	})
}

func BenchmarkE7_NSElimination(b *testing.B) {
	for v := 1; v <= 4; v++ {
		var ds []sparql.Pattern
		for i := 0; i < v; i++ {
			ds = append(ds, sparql.TP(sparql.V(sparql.Var(fmt.Sprintf("X%d", i))), sparql.I("p"), sparql.I("o")))
		}
		p := sparql.NS{P: sparql.UnionOf(ds...)}
		b.Run(fmt.Sprintf("vars=%d", v), func(b *testing.B) {
			var out sparql.Pattern
			for i := 0; i < b.N; i++ {
				out = transform.EliminateNS(p)
			}
			b.ReportMetric(float64(sparql.Size(out)), "output-size")
		})
	}
}

func BenchmarkE8_WDToSimple(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	patterns := make([]sparql.Pattern, 16)
	for i := range patterns {
		patterns[i] = wdpt.GenerateWellDesigned(rng, wdpt.GenerateOpts{MaxNodes: 5})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wdpt.WellDesignedToSimple(patterns[i%len(patterns)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_SelectFree(b *testing.B) {
	p := parser.MustParsePattern(`SELECT {?n, ?u} WHERE
		((?p name ?n) AND (?p works_at ?u) AND
		 (SELECT {?p} WHERE (?p email ?e)))`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		transform.SelectFree(p)
	}
}

func BenchmarkE11_DPGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 6, 8} {
		phi := sat.Random3CNF(rng, n, 2*n)
		psi := sat.Random3CNF(rng, n, 6*n)
		d := reduction.NewDPGadget(phi, psi)
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.Holds()
			}
		})
	}
}

func BenchmarkE12_BHkGadget(b *testing.B) {
	cases := []struct {
		name string
		g    *sat.UGraph
		ms   []int
	}{
		{"C5-in-{3}", sat.Cycle(5), []int{3}},
		{"K4-in-{3,4}", sat.Complete(4), []int{3, 4}},
	}
	for _, c := range cases {
		inst := reduction.ExactSetChromaticInstance(c.g, c.ms)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst.Holds()
			}
		})
	}
}

func BenchmarkE13_MaxOddSat(b *testing.B) {
	f := sat.NewCNF(4)
	f.AddClause(sat.Lit(1))
	f.AddClause(sat.Lit(-2))
	inst := reduction.MaxOddSatInstance(f)
	for i := 0; i < b.N; i++ {
		if !inst.Holds() {
			b.Fatal("instance should hold")
		}
	}
}

func BenchmarkE14_ConstructGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{4, 8, 12} {
		f := sat.Random3CNF(rng, n, 3*n)
		c := reduction.NewConstructGadget(f)
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Holds()
			}
		})
	}
}

func BenchmarkE16_FragmentScaling(b *testing.B) {
	queries := []struct {
		name string
		text string
	}{
		{"AF", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
		{"AUFS", `SELECT {?p} WHERE ((?p founder ?u) UNION (?p supporter ?u)) FILTER (bound(?p))`},
		{"AOF", `((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e) OPT (?p phone ?f)`},
		{"SP", `NS(((?p name ?n) AND (?p works_at ?u)) UNION ((?p name ?n) AND (?p works_at ?u) AND (?p email ?e)))`},
	}
	for _, size := range []int{200, 1000} {
		g := workload.University(workload.UniversityOpts{People: size, OptionalPct: 50, FoundersPct: 10, Seed: 1})
		for _, q := range queries {
			p := parser.MustParsePattern(q.text)
			b.Run(fmt.Sprintf("%s/people=%d", q.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sparql.Eval(g, p)
				}
			})
		}
	}
}

func BenchmarkE17_NSAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{200, 1000, 4000} {
		set := sparql.NewMappingSet()
		for i := 0; i < n; i++ {
			mu := make(sparql.Mapping)
			for v := 0; v < 4; v++ {
				if rng.Intn(2) == 0 {
					mu[sparql.Var(rune('A'+v))] = rdf.IRI(fmt.Sprintf("i%d", rng.Intn(20)))
				}
			}
			set.Add(mu)
		}
		b.Run(fmt.Sprintf("naive/n=%d", set.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.MaximalNaive()
			}
		})
		b.Run(fmt.Sprintf("bucketed/n=%d", set.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.MaximalBucketed()
			}
		})
		// Row variant: encode once outside the loop (a query engine works
		// on rows throughout; the boundary conversion is not part of NS).
		sc, ok := sparql.NewVarSchema([]sparql.Var{"A", "B", "C", "D"})
		if !ok {
			b.Fatal("schema rejected")
		}
		rs, ok := sparql.EncodeMappingSet(set, sparql.Codec{Schema: sc, Dict: rdf.NewDict()})
		if !ok {
			b.Fatal("encode failed")
		}
		b.Run(fmt.Sprintf("rows/n=%d", set.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs.Maximal()
			}
		})
	}
}

func BenchmarkE17_IndexAblation(b *testing.B) {
	g := workload.University(workload.UniversityOpts{People: 5000, OptionalPct: 50, Seed: 2})
	pred := rdf.IRI("email")
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Match(nil, &pred, nil, func(rdf.Triple) bool { return true })
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.MatchScan(nil, &pred, nil, func(rdf.Triple) bool { return true })
		}
	})
}

func BenchmarkE20_PlannerAblation(b *testing.B) {
	queries := []struct {
		name string
		text string
	}{
		{"join3", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
		{"filtered", `((?p name ?n) AND (?p works_at ?u)) FILTER (?u = university_0)`},
		{"opt", `((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`},
	}
	g := workload.University(workload.UniversityOpts{People: 1000, OptionalPct: 50, FoundersPct: 10, Seed: 1})
	for _, q := range queries {
		p := parser.MustParsePattern(q.text)
		b.Run("reference/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sparql.Eval(g, p)
			}
		})
		b.Run("planner-string/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sparql.EvalBudget(g, plan.Optimize(g, p), nil)
			}
		})
		b.Run("planner-rows/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Run(g, plan.Prepare(g, p), nil, plan.Options{})
			}
		})
	}
}

func BenchmarkE21_Membership(b *testing.B) {
	g := workload.University(workload.UniversityOpts{People: 2000, OptionalPct: 50, Seed: 1})
	p := parser.MustParsePattern(`((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	mu := sparql.M("p", "person_3", "n", "Name_3", "u", "university_0")
	b.Run("full-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparql.Eval(g, p).Contains(mu)
		}
	})
	b.Run("constrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparql.Member(g, p, mu)
		}
	})
}

func BenchmarkE22_IncrementalView(b *testing.B) {
	q := parser.MustParseConstruct(`CONSTRUCT {(?p works_in ?m)}
		WHERE (?p works_at ?u) AND (?u stands_for ?m)`)
	base := workload.University(workload.UniversityOpts{People: 2000, OptionalPct: 50, Seed: 1})
	b.Run("incremental-insert", func(b *testing.B) {
		v, err := views.New(q, base)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Insert(rdf.T(rdf.IRI(fmt.Sprintf("hire_%d", i)), "works_at", "university_0"))
		}
	})
	b.Run("recompute", func(b *testing.B) {
		g := base.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Add(rdf.IRI(fmt.Sprintf("hire_%d", i)), "works_at", "university_0")
			sparql.EvalConstruct(g, q)
		}
	})
}

// BenchmarkE23_EarlyTermination compares capped runs (ASK, LIMIT 10)
// with the uncapped run of the same prepared plan; "reference" is the
// string evaluator on the same pattern.
func BenchmarkE23_EarlyTermination(b *testing.B) {
	g := workload.University(workload.UniversityOpts{People: 2000, OptionalPct: 50, Seed: 1})
	p := parser.MustParsePattern(`(?p name ?n) AND (?p works_at ?u) AND (?u type University)`)
	pr := plan.Prepare(g, p)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparql.Eval(g, p)
		}
	})
	for _, c := range []struct {
		name string
		cap  int
	}{{"full-run", 0}, {"ask", 1}, {"limit-10", 10}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Run(g, pr, nil, plan.Options{Cap: c.cap})
			}
		})
	}
}
