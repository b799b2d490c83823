package sparql

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// randomPatternLocal builds random full NS-SPARQL patterns without
// importing the workload package (which would create an import cycle in
// tests that live inside sparql itself).
func randomPatternLocal(rng *rand.Rand, depth int) Pattern {
	if depth == 0 || rng.Intn(3) == 0 {
		pos := func() Value {
			if rng.Intn(2) == 0 {
				return V(Var(rune('A' + rng.Intn(4))))
			}
			return I(rdf.IRI(rune('a' + rng.Intn(4))))
		}
		return TP(pos(), pos(), pos())
	}
	switch rng.Intn(6) {
	case 0:
		return And{L: randomPatternLocal(rng, depth-1), R: randomPatternLocal(rng, depth-1)}
	case 1:
		return Union{L: randomPatternLocal(rng, depth-1), R: randomPatternLocal(rng, depth-1)}
	case 2:
		return Opt{L: randomPatternLocal(rng, depth-1), R: randomPatternLocal(rng, depth-1)}
	case 3:
		return Filter{P: randomPatternLocal(rng, depth-1), Cond: randomCondLocal(rng, 2)}
	case 4:
		return NewSelect([]Var{Var(rune('A' + rng.Intn(4)))}, randomPatternLocal(rng, depth-1))
	default:
		return NS{P: randomPatternLocal(rng, depth-1)}
	}
}

func randomGraphLocal(rng *rand.Rand, n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.IRI(rune('a'+rng.Intn(4))), rdf.IRI(rune('a'+rng.Intn(4))), rdf.IRI(rune('a'+rng.Intn(4))))
	}
	return g
}

// TestEvalCompatibleMatchesReferenceQuick: the constrained evaluator
// returns exactly the c-compatible subset of the reference answers.
func TestEvalCompatibleMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPatternLocal(rng, 3)
		g := randomGraphLocal(rng, rng.Intn(20))
		c := randomMapping(rng, 4, 4)
		want := NewMappingSet()
		for _, mu := range Eval(g, p).Mappings() {
			if mu.CompatibleWith(c) {
				want.Add(mu)
			}
		}
		got := evalCompatible(g, p, c)
		if !got.Equal(want) {
			t.Logf("pattern %s\nconstraint %s\ngraph\n%s\nwant %v\ngot  %v", p, c, g, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMemberMatchesEvalQuick: Member agrees with the reference on both
// actual answers and random non-answers.
func TestMemberMatchesEvalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPatternLocal(rng, 3)
		g := randomGraphLocal(rng, rng.Intn(20))
		ref := Eval(g, p)
		// Every reference answer is a member.
		for _, mu := range ref.Mappings() {
			if !Member(g, p, mu) {
				t.Logf("answer %s rejected for %s", mu, p)
				return false
			}
		}
		// Random probes agree with containment.
		for i := 0; i < 10; i++ {
			mu := randomMapping(rng, 4, 4)
			if Member(g, p, mu) != ref.Contains(mu) {
				t.Logf("probe %s disagrees for %s", mu, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEvalCompatibleEmptyConstraintIsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := randomPatternLocal(rng, 3)
		g := randomGraphLocal(rng, rng.Intn(20))
		if !evalCompatible(g, p, Mapping{}).Equal(Eval(g, p)) {
			t.Fatalf("evalCompatible(∅) ≠ Eval for %s", p)
		}
	}
}

func TestMemberSelective(t *testing.T) {
	// Membership with a fully bound candidate prunes to point lookups.
	g := rdf.FromTriples(
		rdf.T("juan", "born", "chile"), rdf.T("juan", "email", "j@x"),
		rdf.T("ana", "born", "chile"),
	)
	p := Opt{
		L: TP(V("X"), I("born"), I("chile")),
		R: TP(V("X"), I("email"), V("Y")),
	}
	if !Member(g, p, M("X", "juan", "Y", "j@x")) {
		t.Fatal("member answer rejected")
	}
	if Member(g, p, M("X", "juan")) {
		t.Fatal("OPT-extended mapping should not be a member bare")
	}
	if !Member(g, p, M("X", "ana")) {
		t.Fatal("unextended answer rejected")
	}
	if Member(g, p, M("X", "pedro")) {
		t.Fatal("non-answer accepted")
	}
}
