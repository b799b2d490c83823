package main

// The response path this server had before exec.ResultWriter —
// MappingSet → Sorted → one map per row → reflective json.Encoder, and
// rdf.WriteGraph over a built graph — kept as the oracle the served
// bytes are held to.

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// jsonTerm is a term in the SPARQL 1.1 JSON results format.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

// jsonResults is the SPARQL 1.1 JSON results document, extended with an
// optional execution profile (profile=1).
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Profile *obs.Profile  `json:"profile,omitempty"`
	Plan    *plan.Explain `json:"plan,omitempty"`
}

// rowsToJSON renders a mapping set as the SPARQL 1.1 JSON results
// document.
func rowsToJSON(res *sparql.MappingSet) jsonResults {
	doc := jsonResults{}
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

// oracleBody answers a paper-syntax query the old way: the body the
// parent commit's handler wrote, except that an empty head is the
// array SPARQL JSON asks for and not the null a nil slice marshals to.
func oracleBody(t testing.TB, g rdf.Store, text string) []byte {
	t.Helper()
	parsed, err := parser.ParseAny("paper", text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	res, err := exec.EvalCompiled(g, exec.Compile(g, parsed.Pattern, parsed.Construct, parsed.Ask), nil, plan.Options{})
	if err != nil {
		t.Fatalf("eval %q: %v", text, err)
	}
	var buf bytes.Buffer
	if res.Graph != nil {
		if err := rdf.WriteGraph(&buf, res.Graph); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	doc := rowsToJSON(res.Rows)
	if doc.Head.Vars == nil {
		doc.Head.Vars = []string{}
	}
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
