package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/serve"
)

// newServer returns the server for a graph with the default
// governance configuration.
func newServer(g rdf.Store) *serve.Front {
	return newServerWith(g, defaultConfig())
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := rdf.FromTriples(
		rdf.T("juan", "was_born_in", "chile"),
		rdf.T("juan", "email", "juan@puc.cl"),
		rdf.T("ana", "was_born_in", "chile"),
	)
	ts := httptest.NewServer(newServer(g))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	return resp, sb.String()
}

func TestQuerySelectJSON(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape("SELECT ?p WHERE { ?p was_born_in chile . OPTIONAL { ?p email ?e } }")
	resp, body := get(t, ts, "/query?q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type %q", ct)
	}
	var doc jsonResults
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
	found := false
	for _, b := range doc.Results.Bindings {
		if b["p"].Value == "juan" && b["p"].Type == "uri" {
			found = true
		}
	}
	if !found {
		t.Fatalf("juan missing: %s", body)
	}
}

func TestQueryPaperSyntaxAndNS(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape("NS((?p was_born_in chile) UNION ((?p was_born_in chile) AND (?p email ?e)))")
	resp, body := get(t, ts, "/query?syntax=paper&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc jsonResults
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	// Maximal answers: juan with email, ana bare.
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %s", body)
	}
}

func TestQueryAsk(t *testing.T) {
	ts := testServer(t)
	_, body := get(t, ts, "/query?q="+url.QueryEscape("ASK { ?p email ?e }"))
	if !strings.Contains(body, `"boolean":true`) {
		t.Fatalf("ask body = %s", body)
	}
	_, body = get(t, ts, "/query?q="+url.QueryEscape("ASK { ?p phone ?e }"))
	if !strings.Contains(body, `"boolean":false`) {
		t.Fatalf("ask body = %s", body)
	}
}

func TestQueryConstruct(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape("CONSTRUCT { ?p contact ?e } WHERE { ?p email ?e }")
	resp, body := get(t, ts, "/query?q="+q)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<juan> <contact> <juan@puc.cl> .") {
		t.Fatalf("construct body = %s", body)
	}
}

func TestInsertAndStats(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/insert", "text/plain", strings.NewReader("maria was_born_in chile .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	_, body := get(t, ts, "/stats")
	if !strings.Contains(body, `"triples": 4`) {
		t.Fatalf("stats = %s", body)
	}
	// The new triple is queryable.
	_, body = get(t, ts, "/query?q="+url.QueryEscape("ASK { maria was_born_in chile }"))
	if !strings.Contains(body, `"boolean":true`) {
		t.Fatalf("ask after insert = %s", body)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	resp, _ := get(t, ts, "/query")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/query?q="+url.QueryEscape("SELECT nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/query?syntax=weird&q="+url.QueryEscape("ASK { ?x a ?y }"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad syntax: status %d", resp.StatusCode)
	}
	// Wrong methods.
	r2, err := http.Post(ts.URL+"/query?q=x", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /query: status %d", r2.StatusCode)
	}
	resp, _ = get(t, ts, "/insert")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /insert: status %d", resp.StatusCode)
	}
	// Malformed insert body.
	r3, err := http.Post(ts.URL+"/insert", "text/plain", strings.NewReader("<unterminated iri x y ."))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode == http.StatusOK {
		t.Error("malformed insert accepted")
	}
}
