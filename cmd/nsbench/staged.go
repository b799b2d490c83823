package main

// Experiment E30: the staged adaptive parallel execution ablation —
// the static parallel tree (whole DP-ordered chain fanned out at plan
// time, no mid-query observation) vs morsel-style staged fan-out with
// drift checkpoints, tail re-planning and the parallel bind join, vs
// the serial adaptive executor, on the E28 star/chain/mixed workloads.
//
// The three configurations differ only in which executor runs the same
// DP-ordered plans:
//
//	static-parallel  parallel engine, adaptive driver disarmed
//	                 (-planner dp -no-replan): the plan-time tree is
//	                 final, every operand's full extension is scanned
//	staged-adaptive  the shipped parallel default: one fan-out stage
//	                 per join, observed-cardinality checkpoints between
//	                 stages, bind-vs-hash chosen per stage, empty
//	                 prefixes cancel the remaining fan-out
//	serial-adaptive  the E28 dp-adaptive baseline (Parallel: 1), which
//	                 isolates how much of the staged win is adaptivity
//	                 and how much is the pool
//
// All three must agree with each other on every workload (the text run
// checks answer totals); the interesting number is staged-adaptive vs
// static-parallel, the speedup mid-query observation buys once the
// query is big enough to parallelize.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

type e30Config struct {
	name string
	po   plan.PlannerOptions
	eo   plan.Options
}

// e30Par forces the parallel engine the way a loaded server sees it:
// four workers regardless of the bench host's GOMAXPROCS, no estimate
// cutover (the E28 queries are small enough that the gate would
// otherwise keep some of them serial and blur the ablation).
var e30Par = plan.Options{Parallel: 4, MinParallelEstimate: -1}

var e30Configs = []e30Config{
	{"static-parallel", plan.PlannerOptions{NoReplan: true}, e30Par},
	{"staged-adaptive", plan.PlannerOptions{}, e30Par},
	{"serial-adaptive", plan.PlannerOptions{}, plan.Options{Parallel: 1}},
}

// e30Eval runs every query of the workload under one configuration
// (prepare + evaluation, the nsserve cache-miss path) and returns the
// total answer count, which every configuration must agree on.
func e30Eval(s *workload.Social, queries []sparql.Pattern, cfg e30Config) int {
	rows := 0
	for _, q := range queries {
		pr := plan.PrepareOpts(s.G, q, cfg.po)
		ans, err := plan.Run(s.G, pr, nil, cfg.eo)
		if err != nil {
			panic(fmt.Sprintf("nsbench: E30 eval failed: %v", err))
		}
		rows += ans.MappingSet().Len()
	}
	return rows
}

func init() {
	s := workload.NewSocial(workload.SocialOpts{People: e28People})
	wls := e28Workloads(s)

	register("E30", "Staged adaptive parallel execution: static-parallel vs staged-adaptive vs serial-adaptive on the social workload", func() {
		fmt.Printf("  social graph: %d people, %d triples; %d queries per workload; %d workers\n",
			e28People, s.G.Len(), e28Queries, e30Par.Parallel)
		fmt.Println("  workload | executor        | answers | wall")
		for _, wl := range wls {
			base := -1
			var baseDur time.Duration
			for _, cfg := range e30Configs {
				var rows int
				d := timeIt(func() { rows = e30Eval(s, wl.queries, cfg) })
				fmt.Printf("  %-8s | %-15s | %7d | %s\n", wl.name, cfg.name, rows, d.Round(time.Microsecond))
				if base < 0 {
					base, baseDur = rows, d
				} else {
					check(rows == base, fmt.Sprintf("%s/%s answers match static-parallel (%d)", wl.name, cfg.name, rows))
					if cfg.name == "staged-adaptive" {
						fmt.Printf("  %-8s | speedup over static-parallel: %.2fx\n",
							wl.name, float64(baseDur)/float64(d))
					}
				}
			}
		}
	})

	for i := range wls {
		wl := wls[i]
		for j := range e30Configs {
			cfg := e30Configs[j]
			params := map[string]interface{}{
				"workload": wl.name,
				"people":   e28People,
				"queries":  len(wl.queries),
				"workers":  cfg.eo.Parallel,
			}
			if cfg.eo.Parallel > 1 {
				params = parParams(params)
			}
			registerBench("E30", cfg.name, params, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e30Eval(s, wl.queries, cfg)
				}
			})
		}
	}
}
