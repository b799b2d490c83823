package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// runSteps compiles one paper-syntax query and runs it on one worker,
// returning the budget steps it took: the engine's deterministic
// measure of work (index entries read, probes, join candidates, rows).
func runSteps(t *testing.T, s *workload.Social, q string) int64 {
	t.Helper()
	parsed, err := parser.ParseAny("paper", q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	c := exec.Compile(s.G, parsed.Pattern, parsed.Construct, parsed.Ask)
	b := sparql.NewBudget(nil)
	if _, err := exec.Run(s.G, c, b, plan.Options{Parallel: 1}); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return b.Steps()
}

// analyticStepsBefore is what each analyticQueries(city_3, org_3)
// template took on NewSocial{4000, Seed 9} when every join scanned its
// right operand: the tree evaluator hashed, the chain merged its first
// pair, and join orders came from distinct-value bounds.
var analyticStepsBefore = [24]int64{
	11250, 30127, 29576, 59563, 45915, 92086, 56475, 142935,
	30947, 121662, 31817, 106784, 14648, 31538, 62102, 167940,
	86827, 15251, 51150, 80397, 62739, 1057, 1185, 1480,
}

// TestWorkOnProbedJoins holds the engine's work, in budget steps, on
// the two served workloads' samples: bind joins chosen on the rows a
// join would touch, and join orders from index-probed pair sizes.
//   - The 200-query mix over NewSocial{2000, Seed 1} (MixedQueries,
//     rand seed 1) within 400 000 steps (scanning every join: 774 220),
//     its flowers within 60 000 (266 298): a flower's celebrity petal
//     meets the follows predicate in 6 638 rows, not the 20 a
//     distinct-value bound promised.
//   - The 24 analytic templates over NewSocial{4000, Seed 9} within
//     700 000 (1 335 451), and none above 1.1× its steps before.
func TestWorkOnProbedJoins(t *testing.T) {
	mix := workload.NewSocial(workload.SocialOpts{People: 2000, Seed: 1})
	var total, flowers int64
	for _, p := range mix.MixedQueries(rand.New(rand.NewSource(1)), 200, nil) {
		n := runSteps(t, mix, p.String())
		total += n
		if strings.Contains(p.String(), string(workload.ClassCelebrity)) { // only flowers have the celebrity petal
			flowers += n
		}
	}
	t.Logf("mix: %d steps, flowers %d", total, flowers)
	if total > 400_000 || flowers > 60_000 {
		t.Errorf("mix sample: %d steps (ceiling 400 000), flowers %d (ceiling 60 000)", total, flowers)
	}

	s := workload.NewSocial(workload.SocialOpts{People: 4000, Seed: 9})
	total = 0
	for i, q := range analyticQueries(string(s.City(3)), string(s.Org(3))) {
		n := runSteps(t, s, q)
		total += n
		t.Logf("template %2d: %7d steps (before %7d) %s", i, n, analyticStepsBefore[i], q)
		if 10*n > 11*analyticStepsBefore[i] {
			t.Errorf("template %d: %d steps, more than 1.1× its %d before: %s", i, n, analyticStepsBefore[i], q)
		}
	}
	if total > 700_000 {
		t.Errorf("analytic templates: %d steps (ceiling 700 000)", total)
	}
}
