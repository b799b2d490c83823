package workload

import (
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestSocialGraphShape(t *testing.T) {
	s := NewSocial(SocialOpts{People: 500})
	if s.G.Len() == 0 {
		t.Fatal("empty social graph")
	}
	// Every person is typed.
	person := ClassPerson
	typed := countMatch(s.G, nil, PredType, &person)
	if typed != 500 {
		t.Fatalf("typed people = %d, want 500", typed)
	}
	// The zipf skew must make the top celebrity's follower count far
	// exceed the per-person out-degree (i.e. a genuine hub).
	celeb := s.Person(0)
	followers := countMatch(s.G, nil, PredFollows, &celeb)
	if followers < 10*s.Opts.FollowsPerPerson {
		t.Fatalf("celebrity in-degree %d too small for a hub (out-degree %d)",
			followers, s.Opts.FollowsPerPerson)
	}
	// Determinism: the same opts generate the same graph.
	s2 := NewSocial(SocialOpts{People: 500})
	if s2.G.Len() != s.G.Len() {
		t.Fatalf("non-deterministic generation: %d vs %d triples", s.G.Len(), s2.G.Len())
	}
}

func countMatch(g *rdf.Graph, s *rdf.IRI, p rdf.IRI, o *rdf.IRI) int {
	return g.CountMatch(s, &p, o)
}

func TestMixedQueriesDistributionAndValidity(t *testing.T) {
	s := NewSocial(SocialOpts{People: 300})
	rng := rand.New(rand.NewSource(7))
	qs := s.MixedQueries(rng, 200, nil)
	if len(qs) != 200 {
		t.Fatalf("got %d queries, want 200", len(qs))
	}
	// Shape accounting by structural classification: a star has one
	// variable shared by every triple; a chain has max join degree 2.
	stars := 0
	for _, q := range qs {
		tps := sparql.TriplePatterns(q)
		if len(tps) < 2 {
			t.Fatalf("degenerate query %s", q)
		}
		if centerVar(tps) != "" {
			stars++
		}
		// Every generated query must fit the row engine (validity of
		// the shapes against the schema width).
		if _, ok := sparql.SchemaFor(q); !ok {
			t.Fatalf("query %s too wide for the row engine", q)
		}
	}
	// DefaultMix is 60%% stars (trees/flowers also have hubs but not a
	// variable common to every triple); allow wide tolerance.
	if stars < 80 || stars > 160 {
		t.Fatalf("star count %d outside expected band for a 60%% mix", stars)
	}
}

// centerVar returns the variable present in every triple pattern ("" if
// none).
func centerVar(tps []sparql.TriplePattern) sparql.Var {
	counts := make(map[sparql.Var]int)
	for _, tp := range tps {
		for _, v := range sparql.Vars(tp) {
			counts[v]++
		}
	}
	for v, n := range counts {
		if n == len(tps) {
			return v
		}
	}
	return ""
}
