package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// A 40-query mix on a small graph: big enough to exercise every
// stratum, small enough to build in a few milliseconds.
var smallMix = spec{name: "small", people: 300, mixDiv: 5}

func TestRotationFollowsTheMixAndTheSeed(t *testing.T) {
	w, err := buildWorld(smallMix, 7)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]int{}
	for _, q := range w.rotation {
		shapes[q.Shape]++
		got, err := answer(w.social.G, q.Text)
		if err != nil || got != q.Want {
			t.Fatalf("expected answer of %q is stale: %v %v %v", q.Text, got, q.Want, err)
		}
	}
	if want := map[string]int{"star": 24, "chain": 9, "tree": 4, "flower": 2}; !reflect.DeepEqual(shapes, want) {
		t.Errorf("shapes %v, want %v", shapes, want)
	}
	again, _ := buildWorld(smallMix, 7)
	if !reflect.DeepEqual(w.rotation, again.rotation) {
		t.Error("the same seed gave another rotation")
	}
	other, _ := buildWorld(smallMix, 8)
	if reflect.DeepEqual(w.rotation, other.rotation) {
		t.Error("another seed gave the same rotation")
	}
}

func TestPickNearestAndSpread(t *testing.T) {
	sizes := []int{0, 0, 0, 2, 3, 40, 45, 400, 5000}
	got := pickNearest(sizes, []int{0, 0, 4, 50, 500})
	// Largest first: 500→400, 50→45, 4→3, then the two empties.
	if want := []int{7, 6, 4, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("pickNearest = %v, want %v", got, want)
	}
	// No candidate is used twice, even when one is nearest to two sizes.
	if got := pickNearest([]int{10, 1000}, []int{900, 1100}); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("pickNearest with contention = %v", got)
	}
	if got := pickSpread(100, 4); !reflect.DeepEqual(got, []int{12, 37, 62, 87}) {
		t.Errorf("pickSpread(100, 4) = %v", got)
	}
	if got := pickSpread(10, 1); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("pickSpread(10, 1) = %v, want the median", got)
	}
}

func TestSpreadBySizeSeparatesTheGiants(t *testing.T) {
	var rot []query
	for i := 0; i < 200; i++ {
		rot = append(rot, query{Text: string(rune('a' + i%26)), Size: i})
	}
	out := spreadBySize(rot)
	seen := map[int]bool{}
	var giants []int
	for pos, q := range out {
		if seen[q.Size] {
			t.Fatalf("size %d placed twice", q.Size)
		}
		seen[q.Size] = true
		if q.Size >= 190 {
			giants = append(giants, pos)
		}
	}
	if len(seen) != 200 {
		t.Fatalf("%d of 200 queries placed", len(seen))
	}
	for i := 1; i < len(giants); i++ {
		if gap := giants[i] - giants[i-1]; gap < 8 {
			t.Errorf("two of the ten largest queries are %d positions apart: %v", gap, giants)
		}
	}
	for _, n := range []int{24, 39, 222} {
		small := make([]query, n)
		for i := range small {
			small[i].Size = i
		}
		got := map[int]bool{}
		for _, q := range spreadBySize(small) {
			got[q.Size] = true
		}
		if len(got) != n {
			t.Errorf("n=%d: %d distinct queries after spreading", n, len(got))
		}
	}
}

func TestRowCapKeepsEnoughCandidates(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300, Seed: 3})
	cl := spec{name: "small-cluster", people: 300, shards: 2, mixDiv: 5, maxRows: 50}
	capped, err := fillSlots(s.G, strata(cl, s, 3), true, cl.maxRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 39 {
		t.Fatalf("%d queries, want 39", len(capped))
	}
	for _, q := range capped {
		// Every flower of this graph answers more than 50 rows; a stratum
		// without enough small candidates keeps its smallest.
		if q.Want.N > 50 && q.Shape != "flower" {
			t.Errorf("%q answers %d rows, over the cap", q.Text, q.Want.N)
		}
	}
}

func TestWritesLeaveReadsUnchanged(t *testing.T) {
	sp := smallMix
	sp.writeEvery = 9
	w, err := buildWorld(sp, 5)
	if err != nil {
		t.Fatal(err) // buildWorld itself verifies every answer after checkedInserts writes
	}
	// Writes are made from their number alone: in any order, any subset.
	after, err := w.applyInserts([]int{7, 3, 5000})
	if err != nil || after.Len() != w.social.G.Len()+6 {
		t.Errorf("three writes: %d → %d triples, %v", w.social.G.Len(), after.Len(), err)
	}
	if w.insert(3) != w.insert(3) || w.insert(3) == w.insert(4) || strings.Count(w.insert(0), "\n") != 2 {
		t.Errorf("writes 3 and 4: %q %q, want two triples each, the same for the same number", w.insert(3), w.insert(4))
	}
	other, _ := buildWorld(sp, 6)
	same := 0
	for i := 0; i < 100; i++ {
		if w.insert(i) == other.insert(i) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("%d of 100 writes are the same under another seed", same)
	}
}

// Every analytic template must parse, run on the production path and
// agree with the reference evaluator; so must the mix.
func TestOracleAgreesOnEveryTemplate(t *testing.T) {
	n, err := oracleSpotCheck(spec{name: "a", analytic: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(analyticTemplates) {
		t.Errorf("checked %d of %d templates", n, len(analyticTemplates))
	}
	if n, err = oracleSpotCheck(smallMix, 2); err != nil || n < 8 {
		t.Errorf("mix: checked %d, %v", n, err)
	}
}

// The HTTP half digests a response body, the in-process half a
// MappingSet or a graph; for the same answer they must agree.
func TestHTTPAndInProcessDigestsAgree(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 100, Seed: 1})
	p, err := prepare(s.G, opt(tp("?x", "type", "Person"), tp("?x", "email", "?e")))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.eval(s.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	type term struct {
		Type  string `json:"type"`
		Value string `json:"value"`
	}
	var bindings []map[string]term
	for _, mu := range res.Rows.Mappings() {
		b := map[string]term{}
		for v, iri := range mu {
			b[string(v)] = term{"uri", string(iri)}
		}
		bindings = append(bindings, b)
	}
	body, _ := json.Marshal(map[string]any{"results": map[string]any{"bindings": bindings}})
	got, err := digestBody("application/sparql-results+json", body)
	if err != nil || got != digestRows(res.Rows) || got.N != 100 {
		t.Errorf("select: http %v, in-process %v, %v", got, digestRows(res.Rows), err)
	}

	c, err := prepare(s.G, "CONSTRUCT {(?x contact ?e)} WHERE "+tp("?x", "email", "?e"))
	if err != nil {
		t.Fatal(err)
	}
	cres, err := c.eval(s.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nt strings.Builder
	for _, tr := range cres.Graph.Triples() {
		nt.WriteString(tr.NTriples() + "\n")
	}
	got, err = digestBody("text/plain; charset=utf-8", []byte(nt.String()))
	if err != nil || got != digestResult(cres) || got.N == 0 {
		t.Errorf("construct: http %v, in-process %v, %v", got, digestResult(cres), err)
	}
}

func TestInsertBatches(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 50, Seed: 1})
	batches := insertBatches(s.G, 100)
	lines := 0
	for i, b := range batches {
		n := strings.Count(b, "\n")
		if n > 100 || (n < 100 && i != len(batches)-1) {
			t.Errorf("batch %d has %d triples", i, n)
		}
		lines += n
	}
	if lines != s.G.Len() {
		t.Errorf("%d triples in batches, %d in the graph", lines, s.G.Len())
	}
}
