package views

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// largeViewDelta builds a delta of one works_at triple per person.
func largeViewDelta(people int) []rdf.Triple {
	delta := make([]rdf.Triple, 0, people)
	for i := 0; i < people; i++ {
		delta = append(delta, rdf.T(
			rdf.IRI(fmt.Sprintf("person_%d", i)), "works_at",
			rdf.IRI(fmt.Sprintf("uni_%d", i%10))))
	}
	return delta
}

func largeViewBase() *rdf.Graph {
	g := rdf.NewGraph()
	for u := 0; u < 10; u++ {
		g.Add(rdf.IRI(fmt.Sprintf("uni_%d", u)), "located_in",
			rdf.IRI(fmt.Sprintf("country_%d", u%3)))
	}
	return g
}

// TestInsertLargeDeltaAgrees: a single large insert must produce
// exactly the view state that one-triple-at-a-time inserts do.
func TestInsertLargeDeltaAgrees(t *testing.T) {
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	delta := largeViewDelta(256)

	single, err := New(q, largeViewBase())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range delta {
		single.Insert(tr)
	}

	bulk, err := New(q, largeViewBase())
	if err != nil {
		t.Fatal(err)
	}
	added, err := bulk.InsertBudget(sparql.NewBudget(context.Background()), delta...)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(delta) {
		t.Fatalf("added %d of %d delta triples", added, len(delta))
	}
	if !bulk.Graph().Equal(single.Graph()) {
		t.Fatalf("one large insert diverges from one-at-a-time inserts\nlarge:\n%s\none at a time:\n%s",
			bulk.Graph(), single.Graph())
	}
	if !bulk.Base().Equal(single.Base()) {
		t.Fatal("bases diverge after identical inserts")
	}
}

// TestInsertLargeDeltaUnwind aborts a large insert at a spread of
// injection points: the rollback must restore base and output exactly.
func TestInsertLargeDeltaUnwind(t *testing.T) {
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	delta := largeViewDelta(128)

	control, err := New(q, largeViewBase())
	if err != nil {
		t.Fatal(err)
	}
	b := sparql.NewBudget(context.Background())
	if _, err := control.InsertBudget(b, delta...); err != nil {
		t.Fatalf("governed insert failed without fault: %v", err)
	}
	total := b.Steps()

	points := total / 16
	if points < 1 {
		points = 1
	}
	for n := int64(0); n <= total; n += points {
		v, err := New(q, largeViewBase())
		if err != nil {
			t.Fatal(err)
		}
		baseBefore := rdf.CloneStore(v.Base())
		outBefore := rdf.CloneStore(v.Graph())
		fb := sparql.NewBudget(nil)
		fb.InjectFault(n, errInjectedView)
		added, err := v.InsertBudget(fb, delta...)
		if !errors.Is(err, errInjectedView) {
			t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
		}
		if added != 0 {
			t.Fatalf("fault@%d: reported %d added alongside error", n, added)
		}
		if !v.Base().Equal(baseBefore) {
			t.Fatalf("fault@%d: base not rolled back", n)
		}
		if !v.Graph().Equal(outBefore) {
			t.Fatalf("fault@%d: output changed on aborted insert", n)
		}
	}
}
