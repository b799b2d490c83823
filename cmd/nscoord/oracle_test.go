package main

// The coordinator's response path before exec.ResultWriter, kept as
// the oracle its served bytes are held to.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// jsonTerm / queryDoc is the SPARQL 1.1 JSON results document extended
// with the cluster degradation block: "partial" is always present, and
// "shards" appears when at least one shard failed this query.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

type queryDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Partial bool                  `json:"partial"`
	Shards  []cluster.ShardStatus `json:"shards,omitempty"`
}

// rowsToDoc renders a mapping set in the SPARQL 1.1 JSON layout with a
// deterministic head and sorted bindings.
func rowsToDoc(res *sparql.MappingSet) queryDoc {
	doc := queryDoc{}
	seen := make(map[sparql.Var]bool)
	for _, mu := range res.Mappings() {
		for v := range mu {
			if !seen[v] {
				seen[v] = true
				doc.Head.Vars = append(doc.Head.Vars, string(v))
			}
		}
	}
	sort.Strings(doc.Head.Vars)
	doc.Results.Bindings = make([]map[string]jsonTerm, 0, res.Len())
	for _, mu := range res.Sorted() {
		b := make(map[string]jsonTerm, len(mu))
		for v, iri := range mu {
			b[string(v)] = jsonTerm{Type: "uri", Value: string(iri)}
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	return doc
}

// oracleBody is what the parent commit's coordinator answered for a
// paper-syntax query over a cluster holding g with the given shards
// failing, except that an empty head is [] and not null.
func oracleBody(t *testing.T, g rdf.Store, text string, failed []cluster.ShardStatus) []byte {
	t.Helper()
	parsed, err := parser.ParseAny("paper", text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.EvalCompiled(g, exec.Compile(g, parsed.Pattern, parsed.Construct, parsed.Ask), nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if res.Graph != nil {
		if err := rdf.WriteGraph(&buf, res.Graph); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	doc := rowsToDoc(res.Rows)
	doc.Partial, doc.Shards = len(failed) > 0, failed
	if doc.Head.Vars == nil {
		doc.Head.Vars = []string{}
	}
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoordBytesMatchOracle: what the coordinator sends is byte for
// byte what the old path sent — the single-node document plus the
// degradation block — healthy and degraded, and says how long it is.
func TestCoordBytesMatchOracle(t *testing.T) {
	social := workload.NewSocial(workload.SocialOpts{People: 120, Seed: 3})
	shards := []*rdf.Graph{rdf.NewGraph(), rdf.NewGraph()}
	social.G.ForEach(func(t3 rdf.Triple) bool {
		shards[cluster.ShardOf(t3.S, 2)].AddTriple(t3)
		return true
	})
	city, org := string(social.City(0)), string(social.Org(1))
	queries := []string{
		"(?x livesIn " + city + ") AND (?x knows ?y)",
		"((?x worksAt " + org + ") OPT (?x email ?e))",
		"NS(((?x livesIn " + city + ") UNION ((?x livesIn " + city + ") AND (?x email ?e))))",
		"(SELECT {?y} WHERE ((?x worksAt " + org + ") AND (?x follows ?y)))",
		"(?x livesIn nowhere)",
		"CONSTRUCT {(?x listedIn " + city + "), (?x contact ?e)} WHERE ((?x livesIn " + city + ") OPT (?x email ?e))",
	}
	check := func(coordURL string, g rdf.Store, wantFailed int) {
		for _, q := range queries {
			resp, err := http.Get(coordURL + "/query?syntax=paper&q=" + url.QueryEscape(q))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", q, resp.StatusCode, got)
			}
			// The failing shards' error text is the transport's; take it
			// from the response and hold everything else to the oracle.
			var doc struct{ Shards []cluster.ShardStatus }
			if resp.Header.Get("Content-Type") == "application/sparql-results+json" {
				if err := json.Unmarshal(got, &doc); err != nil || len(doc.Shards) != wantFailed {
					t.Fatalf("%s: %d failed shards, want %d (%v)", q, len(doc.Shards), wantFailed, err)
				}
			} else if (resp.Header.Get("X-Partial") == "true") != (wantFailed > 0) {
				t.Fatalf("%s: X-Partial %q with %d failed shards", q, resp.Header.Get("X-Partial"), wantFailed)
			}
			if want := oracleBody(t, g, q, doc.Shards); !bytes.Equal(got, want) {
				t.Fatalf("%s\ngot  %.400s\nwant %.400s", q, got, want)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Fatalf("%s: Content-Length %q for %d bytes", q, cl, len(got))
			}
		}
	}
	s0, s1 := fakeShard(t, shards[0]), fakeShard(t, shards[1])
	check(newTestCoord(t, []string{s0.URL, s1.URL}).URL, social.G, 0)
	s0.Close()
	check(newTestCoord(t, []string{s0.URL, s1.URL}).URL, shards[1], 1)
}
