package main

// Machine-readable performance rows for the ablation experiments:
// `nsbench -json` measures each registered micro-benchmark with
// testing.Benchmark and prints one JSON object per line, suitable for
// tracking the EXPERIMENTS.md numbers across commits.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// benchRow is one emitted measurement.  The row-level counters come
// from one profiled run of the workload (outside the timing loop, so
// they cost the measurement nothing); benches without a profiled
// shape omit them.
type benchRow struct {
	Experiment   string                 `json:"experiment"`
	Name         string                 `json:"name"`
	Params       map[string]interface{} `json:"params,omitempty"`
	NsPerOp      float64                `json:"ns_per_op"`
	AllocsPerOp  int64                  `json:"allocs_per_op"`
	BytesPerOp   int64                  `json:"bytes_per_op"`
	NSCandidates int64                  `json:"ns_candidates,omitempty"`
	NSSurvivors  int64                  `json:"ns_survivors,omitempty"`
	RowsScanned  int64                  `json:"rows_scanned,omitempty"`
}

// profStats is the row-level shape of one workload, derived from a
// profiled run: how many candidate rows entered NS maximality checks,
// how many survived, and how many rows the operators produced in total.
type profStats struct {
	NSCandidates int64
	NSSurvivors  int64
	RowsScanned  int64
}

type jsonBench struct {
	experiment string
	name       string
	params     map[string]interface{}
	stats      func() profStats // nil: no row-level counters
	fn         func(b *testing.B)
}

var jsonBenches []jsonBench

func registerBench(experiment, name string, params map[string]interface{}, fn func(*testing.B)) {
	jsonBenches = append(jsonBenches, jsonBench{experiment: experiment, name: name, params: params, fn: fn})
}

// registerBenchStats is registerBench plus a stats thunk run once per
// emitted row to fill the ns_candidates/ns_survivors/rows_scanned
// columns.
func registerBenchStats(experiment, name string, params map[string]interface{}, stats func() profStats, fn func(*testing.B)) {
	jsonBenches = append(jsonBenches, jsonBench{experiment: experiment, name: name, params: params, stats: stats, fn: fn})
}

// evalPlanned runs p the way the servers do — plan.Prepare, then
// plan.Run — and materialises the answer; a failure is a bug in the
// experiment.
func evalPlanned(g rdf.Store, p sparql.Pattern, o plan.Options) *sparql.MappingSet {
	rows, err := plan.Run(g, plan.Prepare(g, p), nil, o)
	if err != nil {
		panic(fmt.Sprintf("nsbench: evaluating %s: %v", p, err))
	}
	return rows.MappingSet()
}

// planStats evaluates p once under a profile and folds the tree into
// profStats: rows_scanned is the total operator output excluding the
// root (which double-counts the final result set).
func planStats(g *rdf.Graph, p sparql.Pattern, o plan.Options) func() profStats {
	return func() profStats {
		prof := obs.NewNode("query", "")
		o.Prof = prof
		evalPlanned(g, p, o)
		snap := prof.Snapshot()
		return profStats{
			NSCandidates: snap.Sum(func(n *obs.Profile) int64 { return n.NSCandidates }),
			NSSurvivors:  snap.Sum(func(n *obs.Profile) int64 { return n.NSSurvivors }),
			RowsScanned:  snap.Sum(func(n *obs.Profile) int64 { return n.RowsOut }) - snap.RowsOut,
		}
	}
}

// runJSON measures every registered benchmark (restricted to one
// experiment id when runID is non-empty) and prints JSON lines.
func runJSON(runID string) error {
	ran := false
	enc := json.NewEncoder(os.Stdout)
	for _, jb := range jsonBenches {
		if runID != "" && jb.experiment != runID {
			continue
		}
		ran = true
		res := testing.Benchmark(jb.fn)
		row := benchRow{
			Experiment:  jb.experiment,
			Name:        jb.name,
			Params:      jb.params,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if jb.stats != nil {
			st := jb.stats()
			row.NSCandidates = st.NSCandidates
			row.NSSurvivors = st.NSSurvivors
			row.RowsScanned = st.RowsScanned
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("no JSON benchmarks registered for %q", runID)
	}
	return nil
}

// e17MappingSet regenerates the E17 workload: n mappings over four
// variables with half the slots bound.
func e17MappingSet(rng *rand.Rand, n int) *sparql.MappingSet {
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
	return set
}

func init() {
	// E17: the NS (subsumption-maximal) algorithm ablation — naive
	// pairwise vs domain-bucketed strings vs mask-bucketed rows.
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{200, 1000, 4000} {
		set := e17MappingSet(rng, n)
		params := map[string]interface{}{"n": set.Len(), "vars": 4, "iri_pool": 20}
		// E17 exercises the maximality pass directly (no operator tree),
		// so its row counters are computed from the inputs: every row is
		// an NS candidate and gets scanned at least once.
		setStats := func() profStats {
			out := set.MaximalBucketed()
			return profStats{
				NSCandidates: int64(set.Len()),
				NSSurvivors:  int64(out.Len()),
				RowsScanned:  int64(set.Len()),
			}
		}
		registerBenchStats("E17", "maximal-naive", params, setStats, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set.MaximalNaive()
			}
		})
		registerBenchStats("E17", "maximal-bucketed", params, setStats, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set.MaximalBucketed()
			}
		})
		sc, _ := sparql.NewVarSchema([]sparql.Var{"A", "B", "C", "D"})
		rs, ok := sparql.EncodeMappingSet(set, sparql.Codec{Schema: sc, Dict: rdf.NewDict()})
		if !ok {
			panic("nsbench: E17 encode failed")
		}
		rowStats := func() profStats {
			out := rs.Maximal()
			return profStats{
				NSCandidates: int64(rs.Len()),
				NSSurvivors:  int64(out.Len()),
				RowsScanned:  int64(rs.Len()),
			}
		}
		registerBenchStats("E17", "maximal-rows", params, rowStats, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs.Maximal()
			}
		})
	}

	// E20: the planner ablation — reference evaluator vs the optimized
	// plan on string mappings vs the optimized plan on ID-native rows.
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
		p := mustPattern(q.text)
		params := map[string]interface{}{"query": q.name, "people": 1000}
		registerBench("E20", "reference", params, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sparql.Eval(g, p)
			}
		})
		registerBench("E20", "planner-string", params, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sparql.EvalBudget(g, plan.Optimize(g, p), nil)
			}
		})
		registerBenchStats("E20", "planner-rows", params, planStats(g, p, plan.Options{}), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evalPlanned(g, p, plan.Options{})
			}
		})
	}

	// E24: observability overhead — identical plans with profiling off
	// (nil node: one pointer check per operator) vs on (per-operator
	// wall clocks, atomic row counters, NS bucket maps).  join3 is the
	// operator-dense case, ns-wide the NS-bucket-recording case.
	e24 := []struct {
		name string
		text string
	}{
		{"join3", `(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`},
		{"ns-wide", `NS(((?p name ?n) AND (?p works_at ?u))
			UNION ((?p name ?n) AND (?p works_at ?u) AND (?p email ?e))
			UNION ((?p name ?n) AND (?p works_at ?u) AND (?p phone ?f))
			UNION ((?p name ?n) AND (?p works_at ?u) AND (?p homepage ?h)))`},
	}
	for _, q := range e24 {
		p := mustPattern(q.text)
		params := map[string]interface{}{"query": q.name, "people": 1000}
		registerBench("E24", "profile-off", params, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evalPlanned(g, p, plan.Options{})
			}
		})
		registerBenchStats("E24", "profile-on", params, planStats(g, p, plan.Options{}), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof := obs.NewNode("query", "")
				evalPlanned(g, p, plan.Options{Prof: prof})
			}
		})
	}
}
