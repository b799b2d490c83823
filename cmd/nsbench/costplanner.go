package main

// Experiment E28: the cost-based planner ablation — v1 greedy ordering
// vs DP join ordering vs DP plus adaptive re-optimization, measured on
// the social workload's star/chain/mixed query shapes (the shape
// distribution of real endpoint logs; see internal/workload).
//
// The three planner configurations differ only in PlannerOptions (the
// engine picks every join with the same rule, sparql.BindPays, under
// all three):
//
//	greedy       v1 heuristic order on leaf counts
//	dp           DP order on pair-probed sizes, no re-optimization
//	dp-adaptive  the shipped default: DP order + mid-query replanning
//	             (and the empty-prefix short-circuit that lets a query
//	             stop before scanning predicates it can no longer match)

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

const (
	e28People  = 4000
	e28Queries = 30
)

type e28Planner struct {
	name string
	po   plan.PlannerOptions
}

var e28Planners = []e28Planner{
	{"greedy", plan.PlannerOptions{Greedy: true}},
	{"dp", plan.PlannerOptions{NoReplan: true}},
	{"dp-adaptive", plan.PlannerOptions{}},
}

type e28Workload struct {
	name    string
	queries []sparql.Pattern
}

func e28Workloads(s *workload.Social) []e28Workload {
	rng := rand.New(rand.NewSource(28))
	star := make([]sparql.Pattern, 0, e28Queries)
	chain := make([]sparql.Pattern, 0, e28Queries)
	for i := 0; i < e28Queries; i++ {
		star = append(star, s.Query(rng, workload.ShapeStar))
		chain = append(chain, s.Query(rng, workload.ShapeChain))
	}
	mixed := s.MixedQueries(rng, e28Queries, nil)
	return []e28Workload{{"star", star}, {"chain", chain}, {"mixed", mixed}}
}

// e28Eval runs every query of the workload under one planner config
// (prepare + serial evaluation, the nsserve cache-miss path) and
// returns the total answer count, which every config must agree on.
func e28Eval(s *workload.Social, queries []sparql.Pattern, po plan.PlannerOptions) int {
	rows := 0
	for _, q := range queries {
		pr := plan.PrepareOpts(s.G, q, po)
		ans, err := plan.Run(s.G, pr, nil, plan.Options{})
		if err != nil {
			panic(fmt.Sprintf("nsbench: E28 eval failed: %v", err))
		}
		rows += ans.MappingSet().Len()
	}
	return rows
}

func init() {
	s := workload.NewSocial(workload.SocialOpts{People: e28People})
	wls := e28Workloads(s)

	register("E28", "Cost-based planner ablation: greedy vs DP vs DP+adaptive on the social workload", func() {
		fmt.Printf("  social graph: %d people, %d triples; %d queries per workload\n",
			e28People, s.G.Len(), e28Queries)
		fmt.Println("  workload | planner     | answers | wall")
		for _, wl := range wls {
			base := -1
			var baseDur time.Duration
			for _, pl := range e28Planners {
				var rows int
				d := timeIt(func() { rows = e28Eval(s, wl.queries, pl.po) })
				fmt.Printf("  %-8s | %-11s | %7d | %s\n", wl.name, pl.name, rows, d.Round(time.Microsecond))
				if base < 0 {
					base, baseDur = rows, d
				} else {
					check(rows == base, fmt.Sprintf("%s/%s answers match greedy (%d)", wl.name, pl.name, rows))
					if pl.name == "dp-adaptive" {
						fmt.Printf("  %-8s | speedup over greedy: %.2fx\n",
							wl.name, float64(baseDur)/float64(d))
					}
				}
			}
		}
	})

	for i := range wls {
		wl := wls[i]
		params := map[string]interface{}{
			"workload": wl.name,
			"people":   e28People,
			"queries":  len(wl.queries),
		}
		for j := range e28Planners {
			pl := e28Planners[j]
			registerBench("E28", pl.name, params, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e28Eval(s, wl.queries, pl.po)
				}
			})
		}
	}
}
