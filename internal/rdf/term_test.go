package rdf

import "testing"

// TestEscapersDoNotAllocatePerCall pins the N-Triples escapers to
// package-level replacers: formatting a plain IRI costs the one string
// it returns, and parsing a <...> statement line builds no replacer
// (the three terms are substrings of the line).
func TestEscapersDoNotAllocatePerCall(t *testing.T) {
	iri := IRI("person_1")
	if n := testing.AllocsPerRun(100, func() { _ = iri.NTriples() }); n > 1 {
		t.Errorf("IRI.NTriples: %.0f allocs per call, want <= 1", n)
	}
	line := "<person_1> <knows> <person_2> ."
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseTripleLine(line); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("ParseTripleLine: %.0f allocs per call, want 0", n)
	}
}

// TestEscapeRoundTrip checks the escaped bytes survive both directions
// and that a '%' which does not start one of the two escapes is left
// alone.
func TestEscapeRoundTrip(t *testing.T) {
	for _, iri := range []IRI{"plain", "p>q", "o\nnl", "100%", "%3e", ">\n>"} {
		nt := iri.NTriples()
		if got := UnescapeIRI(nt[1 : len(nt)-1]); got != iri {
			t.Errorf("%q: escaped %q, unescaped %q", iri, nt, got)
		}
	}
}
