package main

// Experiment E25: the storage-layer ablation.  The triple store keeps
// three flat []IDTriple permutations (SPO/POS/OSP) with binary-search
// prefix ranges and a mutable delta overlay; this experiment measures
// that layout against (a) the nested-hash-map index the repo used
// before the refactor, rebuilt locally below as the baseline, and
// (b) the always-available MatchScan linear fallback — plus the
// merge-scan join fast path against the general hash join on the same
// plan.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// nestedIndex is the pre-refactor storage layout: three levels of hash
// maps per access path.  Lookups are O(1) per level but ranges hop
// through scattered map cells and the per-triple overhead of the inner
// sets dominates scans.
type nestedIndex struct {
	spo map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}
	pos map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}
	osp map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}
}

func buildNested(g *rdf.Graph) *nestedIndex {
	ins := func(m map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}, a, b, c rdf.ID) {
		l2 := m[a]
		if l2 == nil {
			l2 = make(map[rdf.ID]map[rdf.ID]struct{})
			m[a] = l2
		}
		l3 := l2[b]
		if l3 == nil {
			l3 = make(map[rdf.ID]struct{})
			l2[b] = l3
		}
		l3[c] = struct{}{}
	}
	ix := &nestedIndex{
		spo: make(map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}),
		pos: make(map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}),
		osp: make(map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}),
	}
	g.MatchIDs(nil, nil, nil, func(t rdf.IDTriple) bool {
		ins(ix.spo, t.S, t.P, t.O)
		ins(ix.pos, t.P, t.O, t.S)
		ins(ix.osp, t.O, t.S, t.P)
		return true
	})
	return ix
}

// match mirrors rdf.Graph.MatchIDs on the nested layout: pick the
// permutation whose prefix is bound and walk the residual maps.
func (ix *nestedIndex) match(s, p, o *rdf.ID, yield func(rdf.IDTriple) bool) {
	switch {
	case s != nil:
		for pp, l3 := range ix.spo[*s] {
			if p != nil && pp != *p {
				continue
			}
			for oo := range l3 {
				if o != nil && oo != *o {
					continue
				}
				if !yield(rdf.IDTriple{S: *s, P: pp, O: oo}) {
					return
				}
			}
		}
	case p != nil:
		for oo, l3 := range ix.pos[*p] {
			if o != nil && oo != *o {
				continue
			}
			for ss := range l3 {
				if !yield(rdf.IDTriple{S: ss, P: *p, O: oo}) {
					return
				}
			}
		}
	case o != nil:
		for ss, l3 := range ix.osp[*o] {
			for pp := range l3 {
				if !yield(rdf.IDTriple{S: ss, P: pp, O: *o}) {
					return
				}
			}
		}
	default:
		for ss, l2 := range ix.spo {
			for pp, l3 := range l2 {
				for oo := range l3 {
					if !yield(rdf.IDTriple{S: ss, P: pp, O: oo}) {
						return
					}
				}
			}
		}
	}
}

// e25Scans are the access shapes of the scan ablation, each hitting a
// different permutation/depth of the index.
func e25Scans(g *rdf.Graph) []struct {
	name    string
	s, p, o *rdf.ID
} {
	d := g.Dict()
	idOf := func(iri rdf.IRI) *rdf.ID {
		id, ok := d.Lookup(iri)
		if !ok {
			panic(fmt.Sprintf("nsbench: E25 IRI %q not in workload graph", iri))
		}
		return &id
	}
	return []struct {
		name    string
		s, p, o *rdf.ID
	}{
		{name: "by-subject", s: idOf("person_4000")},
		{name: "by-predicate", p: idOf("works_at")},
		{name: "by-subject-predicate", s: idOf("person_4000"), p: idOf("name")},
		{name: "by-object", o: idOf("university_0")},
	}
}

// e25Fixture bundles the lazily-built ablation state.  The workload
// graph plus the nested-map baseline hold a lot of live heap (the
// nested index alone is tens of thousands of map cells the GC must
// mark), so nothing is materialized until the first E25 measurement —
// the earlier experiments in the same process must not pay E25's GC
// pressure.
type e25Fixture struct {
	g      *rdf.Graph
	nested *nestedIndex
}

const e25People = 5000

var e25 = sync.OnceValue(func() *e25Fixture {
	g := workload.University(workload.UniversityOpts{People: e25People, OptionalPct: 50, FoundersPct: 10, Seed: 25})
	nested := buildNested(g)
	// Sanity: the baseline and the sorted index agree on every shape
	// before anything is measured against them.
	for _, sc := range e25Scans(g) {
		n := 0
		nested.match(sc.s, sc.p, sc.o, func(rdf.IDTriple) bool { n++; return true })
		if want := g.CountMatchIDs(sc.s, sc.p, sc.o); n != want {
			panic(fmt.Sprintf("nsbench: E25 %s: nested=%d sorted=%d", sc.name, n, want))
		}
	}
	return &e25Fixture{g: g, nested: nested}
})

// withMerge toggles the merge-scan fast path around fn, restoring the
// previous setting.
func withMerge(enabled bool, fn func()) {
	prev := sparql.MergeJoinEnabled
	sparql.MergeJoinEnabled = enabled
	defer func() { sparql.MergeJoinEnabled = prev }()
	fn()
}

func init() {
	scanNames := []string{"by-subject", "by-predicate", "by-subject-predicate", "by-object"}
	paramsFor := func(query string) map[string]interface{} {
		return map[string]interface{}{"people": e25People, "query": query}
	}
	for i, name := range scanNames {
		i := i
		registerBench("E25", "scan-nested-map", paramsFor(name), func(b *testing.B) {
			fx := e25()
			sc := e25Scans(fx.g)[i]
			b.ResetTimer()
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				n := 0
				fx.nested.match(sc.s, sc.p, sc.o, func(rdf.IDTriple) bool { n++; return true })
			}
		})
		registerBench("E25", "scan-sorted", paramsFor(name), func(b *testing.B) {
			fx := e25()
			sc := e25Scans(fx.g)[i]
			b.ResetTimer()
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				n := 0
				fx.g.MatchIDs(sc.s, sc.p, sc.o, func(rdf.IDTriple) bool { n++; return true })
			}
		})
		registerBench("E25", "count-sorted", paramsFor(name), func(b *testing.B) {
			fx := e25()
			sc := e25Scans(fx.g)[i]
			b.ResetTimer()
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				fx.g.CountMatchIDs(sc.s, sc.p, sc.o)
			}
		})
	}
	// The linear fallback only on one shape: it is O(|G|) regardless of
	// the bound slots, so one row calibrates the whole family.
	registerBench("E25", "scan-linear", paramsFor("by-subject-predicate"), func(b *testing.B) {
		fx := e25()
		s, p := rdf.IRI("person_4000"), rdf.IRI("name")
		b.ResetTimer()
		b.ReportAllocs()
		for j := 0; j < b.N; j++ {
			n := 0
			fx.g.MatchScan(&s, &p, nil, func(rdf.Triple) bool { n++; return true })
		}
	})

	// The join ablation: a star join whose operands share their leading
	// sort key (?p), so the merge-scan fast path applies; disabling it
	// falls back to the general hash join on the identical plan.
	joinPattern := mustPattern(`(?p works_at university_0) AND (?p was_born_in country_3)`)
	serial := plan.Options{}
	joinStats := func() profStats { return planStats(e25().g, joinPattern, serial)() }
	registerBenchStats("E25", "join-merge", paramsFor("star-join"), joinStats, func(b *testing.B) {
		fx := e25()
		b.ResetTimer()
		withMerge(true, func() {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				evalPlanned(fx.g, joinPattern, serial)
			}
		})
	})
	registerBenchStats("E25", "join-hash", paramsFor("star-join"), joinStats, func(b *testing.B) {
		fx := e25()
		b.ResetTimer()
		withMerge(false, func() {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				evalPlanned(fx.g, joinPattern, serial)
			}
		})
	})

	register("E25", "Storage ablation: nested hash maps vs flat sorted indexes vs linear scan; merge-scan vs hash join", func() {
		fx := e25()
		for _, sc := range e25Scans(fx.g) {
			want := 0
			fx.nested.match(sc.s, sc.p, sc.o, func(rdf.IDTriple) bool { want++; return true })
			got := fx.g.CountMatchIDs(sc.s, sc.p, sc.o)
			check(got == want, fmt.Sprintf("%s: sorted index and nested maps agree on %d triples", sc.name, got))
		}
		var merged, hashed *sparql.MappingSet
		withMerge(true, func() { merged = evalPlanned(fx.g, joinPattern, serial) })
		withMerge(false, func() { hashed = evalPlanned(fx.g, joinPattern, serial) })
		check(merged.Equal(hashed), fmt.Sprintf("star join: merge scan and hash join agree on %d rows", merged.Len()))
		fx.g.Compact() // fold the residual overlay below the auto threshold
		st := fx.g.Stats()
		check(st.OverlayAdds == 0 && st.OverlayDels == 0,
			fmt.Sprintf("workload graph fully compacted: %d base triples, %d compactions", st.BaseTriples, st.Compactions))
	})
}
