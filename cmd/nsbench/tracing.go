package main

// Experiment E29: distributed-tracing overhead — the E24 methodology
// applied to the tracing layer.  Three configurations of the
// per-query server envelope (root span, exec child with Options.Trace,
// profile bridged via AttachProfile, tail-based retention at root End)
// run the E20 join3 query:
//
//	trace-off      nil tracer: every span call is a nil-receiver no-op
//	trace-sampled  the shipped default: spans recorded, ~10% of
//	               unremarkable traces retained at root End
//	trace-on       SampleRate 1: every trace snapshotted into the ring
//
// The off→sampled delta is the production cost of tracing; the
// sampled→on delta isolates retention (snapshot copy + ring insert),
// which tail-based sampling makes per-trace, not per-span.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

type e29Config struct {
	name string
	mk   func() *obs.Tracer // nil result = tracing disabled
}

var e29Configs = []e29Config{
	{"trace-off", func() *obs.Tracer { return nil }},
	{"trace-sampled", func() *obs.Tracer {
		return obs.NewTracer(obs.TracerOptions{SampleRate: 0.1, SlowThreshold: -1, Seed: 29})
	}},
	{"trace-on", func() *obs.Tracer {
		return obs.NewTracer(obs.TracerOptions{SampleRate: 1, SlowThreshold: -1, Seed: 29})
	}},
}

// e29Query runs one query under the nsserve tracing envelope: a root
// span, an exec child passed to the engine (replan checkpoints land
// under it), the always-on profile bridged in, then the root End that
// triggers the retention decision.
func e29Query(g *rdf.Graph, p sparql.Pattern, tracer *obs.Tracer) int {
	span := tracer.StartTrace("query", "")
	prof := obs.NewNode("query", "")
	esp := span.StartChild("exec", "")
	ms := evalPlanned(g, p, plan.Options{Parallel: 1, Prof: prof, Trace: esp})
	esp.End()
	esp.AttachProfile(prof.Snapshot())
	span.End()
	return ms.Len()
}

func init() {
	const people = 1000
	g := workload.University(workload.UniversityOpts{People: people, OptionalPct: 50, FoundersPct: 10, Seed: 1})
	join3 := mustPattern(`(?p name ?n) AND (?p works_at ?u) AND (?u stands_for ?m)`)

	register("E29", "Tracing overhead ablation: off vs tail-sampled vs always-on on the join3 query", func() {
		const rounds, queriesPerRound = 3, 40
		fmt.Printf("  university graph: %d people, %d triples; %d queries per round, best of %d rounds\n",
			people, g.Len(), queriesPerRound, rounds)
		fmt.Println("  config        | answers | wall/query | overhead")
		var offDur time.Duration
		var offRows int
		for _, cfg := range e29Configs {
			tracer := cfg.mk()
			best := time.Duration(0)
			rows := 0
			for r := 0; r < rounds; r++ {
				d := timeIt(func() {
					rows = 0
					for i := 0; i < queriesPerRound; i++ {
						rows += e29Query(g, join3, tracer)
					}
				})
				if best == 0 || d < best {
					best = d
				}
			}
			perQuery := best / queriesPerRound
			switch cfg.name {
			case "trace-off":
				offDur, offRows = perQuery, rows
				fmt.Printf("  %-13s | %7d | %10s | baseline\n", cfg.name, rows, perQuery.Round(time.Microsecond))
			default:
				overhead := float64(perQuery-offDur) / float64(offDur) * 100
				fmt.Printf("  %-13s | %7d | %10s | %+.1f%%\n", cfg.name, rows, perQuery.Round(time.Microsecond), overhead)
				check(rows == offRows, fmt.Sprintf("%s answers match trace-off (%d)", cfg.name, rows))
				if cfg.name == "trace-sampled" {
					check(overhead <= 5.0, fmt.Sprintf("tail-sampled overhead %.1f%% <= 5%%", overhead))
				}
			}
			st := tracer.Stats()
			switch cfg.name {
			case "trace-off":
				check(st == (obs.TraceStats{}), "nil tracer records nothing")
			case "trace-sampled":
				check(st.Started == int64(rounds*queriesPerRound), "sampled: every trace started")
				check(st.Kept < st.Started && st.SampledOut > 0, fmt.Sprintf("sampled: tail retention dropped most (%d/%d kept)", st.Kept, st.Started))
			case "trace-on":
				check(st.Kept == st.Started, fmt.Sprintf("always-on: every trace kept (%d)", st.Kept))
				check(st.Spans >= st.Started*2, "always-on: exec + operator spans recorded")
			}
		}
	})

	params := map[string]interface{}{"query": "join3", "people": people}
	for i := range e29Configs {
		cfg := e29Configs[i]
		registerBench("E29", cfg.name, params, func(b *testing.B) {
			b.ReportAllocs()
			tracer := cfg.mk()
			for i := 0; i < b.N; i++ {
				e29Query(g, join3, tracer)
			}
		})
	}
}
