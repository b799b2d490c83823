package main

// Experiment E23: early termination — ASK (first witness) and LIMIT k
// as capped runs of a plan, against the uncapped run of the same plan
// and against the reference evaluator.

import (
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func init() {
	register("E23", "Early termination: ASK / LIMIT as capped plan.Runs vs the full run of the same plan", func() {
		g := workload.University(workload.UniversityOpts{People: 5000, OptionalPct: 50, FoundersPct: 10, Seed: 1})
		queries := []struct {
			name string
			text string
		}{
			{"broad join", `(?p name ?n) AND (?p works_at ?u)`},
			{"broad chain", `(?p name ?n) AND (?p works_at ?u) AND (?u type University)`},
			{"selective", `(?p name Name_1234) AND (?p works_at ?u) AND (?p email ?e)`},
			{"no witness", `(?p name Name_1234) AND (?p works_at nowhere)`},
		}
		fmt.Println("  query       | answers | reference | full run (steps) | ASK (steps) | LIMIT 10 (steps)")
		for _, q := range queries {
			p := mustPattern(q.text)
			pr := plan.Prepare(g, p)
			run := func(k int) (time.Duration, int64, int) {
				b := sparql.NewBudget(nil)
				var rows sparql.Rows
				d := timeIt(func() { rows, _ = plan.Run(g, pr, b, plan.Options{Cap: k}) })
				return d.Round(time.Microsecond), b.Steps(), rows.Len()
			}
			dRef := timeIt(func() { sparql.Eval(g, p) })
			dFull, sFull, n := run(0)
			dAsk, sAsk, _ := run(1)
			dLim, sLim, _ := run(10)
			fmt.Printf("  %-11s | %7d | %9s | %7s (%6d) | %6s (%4d) | %7s (%5d)\n",
				q.name, n, dRef.Round(time.Microsecond), dFull, sFull, dAsk, sAsk, dLim, sLim)
		}
		fmt.Println("  (reference: sparql.Eval; the other columns run one plan.Prepare,")
		fmt.Println("   uncapped and with plan.Options.Cap 1 and 10; steps are budget steps)")
	})
}
