package cluster

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// TestGatherPlannerDifferential closes the loop between the cluster
// path and planner v2: the subgraph a coordinator gathers is evaluated
// under every planner configuration (v1 greedy, DP, DP+adaptive), and
// each must equal single-node reference evaluation over the full
// graph — so cost-based ordering, the engine's join rule and
// mid-query re-planning cannot change answers on gathered subgraphs
// either.
func TestGatherPlannerDifferential(t *testing.T) {
	queries := []string{
		"(?x knows ?y) AND (?y knows ?z) AND (?z worksAt ?w)",
		"(?x type v1) AND (?x knows ?y) AND (?y worksAt ?w)",
		"(?x knows ?y) OPT (?y email ?e)",
		"NS((?x worksAt ?w) UNION ((?x worksAt ?w) AND (?x email ?e)))",
	}
	planners := []plan.PlannerOptions{
		{Greedy: true},
		{NoReplan: true},
		{},
	}
	full, parts := seedGraphs(2, 600, 23)
	var urls []string
	for _, g := range parts {
		urls = append(urls, shardServer(t, g, nil).URL)
	}
	c := mustCoordinator(t, fastOpts(urls))
	for _, q := range queries {
		pattern, tps := gatherPatterns(t, q)
		sub, statuses, partial := c.Gather(context.Background(), tps)
		if partial {
			t.Fatalf("%q: unexpected partial gather: %+v", q, statuses)
		}
		want := sparql.Eval(full, pattern)
		for _, po := range planners {
			cp := exec.Compiled{Prepared: plan.PrepareOpts(sub, pattern, po)}
			res, err := exec.EvalCompiled(sub, cp, nil, plan.Options{})
			if err != nil {
				t.Fatalf("%q under %+v: %v", q, po, err)
			}
			if !res.Rows.Equal(want) {
				t.Fatalf("%q under %+v: cluster answer (%d rows) != reference (%d rows)",
					q, po, res.Rows.Len(), want.Len())
			}
		}
	}
}
