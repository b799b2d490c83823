package main

// Experiments E11–E17: the Section 7 complexity reductions, executed
// and timed to demonstrate the *shape* the paper proves — SAT-driven
// exponential growth for the hard fragments (NP / DP / BH_2k / P^NP_∥)
// and polynomial behaviour for the engineering ablations.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rdf"
	"repro/internal/reduction"
	"repro/internal/sat"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func init() {
	register("E11", "Theorem 7.1: Eval(SP–SPARQL) is DP-complete — SAT-UNSAT gadget scaling", func() {
		rng := rand.New(rand.NewSource(11))
		fmt.Println("  vars | clauses | holds | DPLL agrees | eval time")
		for _, n := range []int{4, 6, 8, 10} {
			phi := sat.Random3CNF(rng, n, 2*n)
			psi := sat.Random3CNF(rng, n, 6*n) // denser: usually unsat
			d := reduction.NewDPGadget(phi, psi)
			var holds bool
			dur := timeIt(func() { holds = d.Holds() })
			want := sat.Satisfiable(phi) && !sat.Satisfiable(psi)
			fmt.Printf("  %4d | %7d | %5v | %11v | %9s\n", n, 8*n, holds, holds == want, dur.Round(time.Microsecond))
		}
		fmt.Println("  (evaluation materializes all satisfying assignments: exponential in vars)")
	})

	register("E12", "Theorem 7.2: Eval(USP_k) is BH_2k-complete — chromatic-number pipeline", func() {
		type row struct {
			name string
			g    *sat.UGraph
			ms   []int
			want bool
		}
		rows := []row{
			{"χ(C5)=3 ∈ {3}", sat.Cycle(5), []int{3}, true},
			{"χ(C5)=3 ∈ {2,4}", sat.Cycle(5), []int{2, 4}, false},
			{"χ(K4)=4 ∈ {3,4}", sat.Complete(4), []int{3, 4}, true},
			{"χ(K5)=5 ∈ {4,5,6}", sat.Complete(5), []int{4, 5, 6}, true},
			{"χ(C6)=2 ∈ {3,4,5}", sat.Cycle(6), []int{3, 4, 5}, false},
		}
		allOK := true
		fmt.Println("  instance           | k disjuncts | holds | time")
		for _, r := range rows {
			inst := reduction.ExactSetChromaticInstance(r.g, r.ms)
			var holds bool
			dur := timeIt(func() { holds = inst.Holds() })
			fmt.Printf("  %-18s | %11d | %5v | %9s\n", r.name, len(r.ms), holds, dur.Round(time.Microsecond))
			allOK = allOK && holds == r.want
		}
		check(allOK, "every chromatic-membership instance decides correctly")
		fmt.Printf("  (the paper's M_k set for k=1 is %v, k=2 is %v)\n", reduction.MkSet(1), reduction.MkSet(2))
	})

	register("E13", "Theorem 7.3: Eval(USP–SPARQL) is P^NP_∥-complete — MAX-ODD-SAT pipeline", func() {
		rng := rand.New(rand.NewSource(13))
		trials, agree := 8, 0
		fmt.Println("  vars | max-true | odd? | gadget holds | time")
		for i := 0; i < trials; i++ {
			f := sat.Random3CNF(rng, 4, 1+rng.Intn(6))
			m, ok := sat.MaxTrueVars(f)
			want := ok && m%2 == 1
			inst := reduction.MaxOddSatInstance(f)
			var holds bool
			dur := timeIt(func() { holds = inst.Holds() })
			if holds == want {
				agree++
			}
			fmt.Printf("  %4d | %8d | %4v | %12v | %9s\n", f.NumVars, m, want, holds, dur.Round(time.Microsecond))
		}
		check(agree == trials, "gadget agrees with the MAX-ODD-SAT oracle on every trial")
	})

	register("E14", "Theorem 7.4: Eval(CONSTRUCT[AUF]) is NP-complete — SAT gadget scaling", func() {
		rng := rand.New(rand.NewSource(14))
		fmt.Println("  vars | clauses | holds | DPLL agrees | reference | capped run")
		for _, n := range []int{4, 6, 8, 10, 12, 14} {
			f := sat.Random3CNF(rng, n, 3*n)
			c := reduction.NewConstructGadget(f)
			var holds, holdsFast bool
			dur := timeIt(func() { holds = c.Holds() })
			durFast := timeIt(func() { holdsFast = c.HoldsFast() })
			fmt.Printf("  %4d | %7d | %5v | %11v | %9s | %12s\n",
				n, 3*n, holds, holds == sat.Satisfiable(f) && holds == holdsFast,
				dur.Round(time.Microsecond), durFast.Round(time.Microsecond))
		}
		fmt.Println("  (reference: sparql.ConstructContains over the full output; capped")
		fmt.Println("   run: exec.ConstructContains, the WHERE filtered to the target and")
		fmt.Println("   stopped at its first answer)")
	})

	register("E16", "Section 7 summary: measured evaluation cost by fragment (university workload)", func() {
		queries := []struct {
			name string
			text string
		}{
			{"AF (join)", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
			{"AUFS", `SELECT {?p} WHERE ((?p founder ?u) UNION (?p supporter ?u)) FILTER (bound(?p))`},
			{"AOF (opt)", `((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e) OPT (?p phone ?f)`},
			{"SP (NS)", `NS(((?p name ?n) AND (?p works_at ?u)) UNION ((?p name ?n) AND (?p works_at ?u) AND (?p email ?e)))`},
			{"USP (2 disj.)", `NS((?p email ?e) UNION ((?p email ?e) AND (?p phone ?f))) UNION NS((?p homepage ?h) UNION ((?p homepage ?h) AND (?p phone ?f)))`},
		}
		fmt.Println("  fragment      | people |  |G|  | answers | eval time")
		for _, size := range []int{200, 1000, 5000} {
			g := workload.University(workload.UniversityOpts{People: size, OptionalPct: 50, FoundersPct: 10, Seed: 1})
			for _, q := range queries {
				p := mustPattern(q.text)
				var res *sparql.MappingSet
				dur := timeIt(func() { res = sparql.Eval(g, p) })
				fmt.Printf("  %-13s | %6d | %5d | %7d | %9s\n", q.name, size, g.Len(), res.Len(), dur.Round(time.Microsecond))
			}
		}
	})

	register("E17", "Ablations: NS algorithm (naive vs bucketed) and triple-index vs scan", func() {
		rng := rand.New(rand.NewSource(17))
		fmt.Println("  NS input mappings | naive | bucketed")
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
			dNaive := timeIt(func() { set.MaximalNaive() })
			dBucket := timeIt(func() { set.MaximalBucketed() })
			fmt.Printf("  %17d | %9s | %9s\n", set.Len(), dNaive.Round(time.Microsecond), dBucket.Round(time.Microsecond))
		}
		g := workload.University(workload.UniversityOpts{People: 5000, OptionalPct: 50, Seed: 2})
		pred := rdf.IRI("email")
		count := 0
		dIdx := timeIt(func() {
			g.Match(nil, &pred, nil, func(rdf.Triple) bool { count++; return true })
		})
		dScan := timeIt(func() {
			g.MatchScan(nil, &pred, nil, func(rdf.Triple) bool { return true })
		})
		fmt.Printf("  predicate match over %d triples (%d hits): indexed %s, scan %s\n",
			g.Len(), count, dIdx.Round(time.Microsecond), dScan.Round(time.Microsecond))
	})
}

func init() {
	register("E21", "Ablation: full-evaluation membership vs constrained membership (sparql.Member)", func() {
		rng := rand.New(rand.NewSource(21))
		fmt.Println("  instance            | agree | full eval | constrained")
		for _, n := range []int{6, 8, 10} {
			phi := sat.Random3CNF(rng, n, 2*n)
			psi := sat.Random3CNF(rng, n, 6*n)
			d := reduction.NewDPGadget(phi, psi)
			var h1, h2 bool
			dFull := timeIt(func() { h1 = d.Holds() })
			dFast := timeIt(func() { h2 = d.HoldsFast() })
			fmt.Printf("  DP gadget (n=%2d)    | %5v | %9s | %11s\n", n, h1 == h2, dFull.Round(time.Microsecond), dFast.Round(time.Microsecond))
		}
		// Selective membership on a data workload: candidate fully bound.
		g := workload.University(workload.UniversityOpts{People: 5000, OptionalPct: 50, Seed: 1})
		p := mustPattern(`((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
		mu := sparql.M("p", "person_3", "n", "Name_3", "u", "university_0")
		var inFull, inFast bool
		dFull := timeIt(func() { inFull = sparql.Eval(g, p).Contains(mu) })
		dFast := timeIt(func() { inFast = sparql.Member(g, p, mu) })
		fmt.Printf("  profile membership  | %5v | %9s | %11s\n", inFull == inFast, dFull.Round(time.Microsecond), dFast.Round(time.Microsecond))
		fmt.Println("  (the constraint prunes when the candidate binds selective variables;")
		fmt.Println("   on the DP gadget it binds only the witness, so nothing is pruned)")
	})
}
