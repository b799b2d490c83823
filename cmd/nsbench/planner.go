package main

// Experiment E20: the query-planner ablation — reference nested-loop
// evaluator vs the internal/plan optimized evaluator (hash joins, join
// reordering, filter push-down), on the university workload.

import (
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func init() {
	register("E20", "Planner ablation: reference evaluator vs hash-join planner", func() {
		queries := []struct {
			name string
			text string
		}{
			{"3-way join", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
			{"selective join", `(?p ?r ?x) AND (?p name Name_3) AND (?p works_at ?u)`},
			{"opt profile", `((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e) OPT (?p phone ?f)`},
			{"filtered join", `((?p name ?n) AND (?p works_at ?u)) FILTER (?u = university_0)`},
			{"NS profile", `NS(((?p name ?n) AND (?p works_at ?u)) UNION ((?p name ?n) AND (?p works_at ?u) AND (?p email ?e)))`},
		}
		fmt.Println("  query          | people | answers | reference | planner | agree")
		for _, size := range []int{1000, 5000} {
			g := workload.University(workload.UniversityOpts{People: size, OptionalPct: 50, FoundersPct: 10, Seed: 1})
			for _, q := range queries {
				p := mustPattern(q.text)
				var ref, opt *sparql.MappingSet
				dRef := timeIt(func() { ref = sparql.Eval(g, p) })
				dOpt := timeIt(func() { opt = evalPlanned(g, p, plan.Options{}) })
				fmt.Printf("  %-14s | %6d | %7d | %9s | %7s | %v\n",
					q.name, size, ref.Len(),
					dRef.Round(time.Microsecond), dOpt.Round(time.Microsecond), ref.Equal(opt))
			}
		}
	})
}
