package main

// Experiment E23: early-termination execution — ASK (first witness) and
// LIMIT-k vs full evaluation.

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func init() {
	register("E23", "Early termination: ASK / LIMIT via backtracking search vs full evaluation", func() {
		g := workload.University(workload.UniversityOpts{People: 5000, OptionalPct: 50, FoundersPct: 10, Seed: 1})
		queries := []struct {
			name string
			text string
		}{
			{"broad join", `(?p name ?n) AND (?p works_at ?u)`},
			{"selective", `(?p name Name_1234) AND (?p works_at ?u) AND (?p email ?e)`},
			{"no witness", `(?p name Name_1234) AND (?p works_at nowhere)`},
		}
		fmt.Println("  query      | answers | full eval | ASK | LIMIT 10")
		for _, q := range queries {
			p := mustPattern(q.text)
			var res *sparql.MappingSet
			dFull := timeIt(func() { res = sparql.Eval(g, p) })
			dAsk := timeIt(func() { exec.Run(g, exec.Compile(g, p, nil, true), nil, plan.Options{}) })
			dLim := timeIt(func() { exec.Limit(g, p, 10, nil, plan.Options{}) })
			fmt.Printf("  %-10s | %7d | %9s | %9s | %9s\n",
				q.name, res.Len(), dFull.Round(time.Microsecond),
				dAsk.Round(time.Microsecond), dLim.Round(time.Microsecond))
		}
	})
}
