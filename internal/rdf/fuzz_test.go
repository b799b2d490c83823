package rdf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadTriples: whatever the body, ReadTriples never panics, accepts
// it exactly when ParseTripleLine accepts each of its non-blank,
// non-comment lines (returning those lines' triples in order), and an
// accepted body loaded by AddTriples and written by WriteGraph reads
// back as the same set, unless a bare word in it spells an escape (see
// spellsEscape).  The seeds are the committed corpus in
// testdata/fuzz/FuzzReadTriples: comments, blank lines, <...> IRIs with
// escapes, a missing dot, two and four terms.
func FuzzReadTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		ts, err := ReadTriples(strings.NewReader(body))
		var want []Triple
		accepted := true
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			tr, perr := ParseTripleLine(line)
			if perr != nil {
				accepted = false
				break
			}
			want = append(want, tr)
		}
		if (err == nil) != accepted {
			t.Fatalf("ReadTriples error %v, ParseTripleLine accepts every line: %v", err, accepted)
		}
		if err != nil {
			return
		}
		if !slices.Equal(ts, want) {
			t.Fatalf("ReadTriples = %q, the lines parse to %q", ts, want)
		}
		if slices.ContainsFunc(ts, spellsEscape) {
			return
		}
		g := NewGraph()
		if _, err := g.AddTriples(ts); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := WriteGraph(&out, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTriples(&out)
		if err != nil {
			t.Fatalf("written graph does not read back: %v\n%s", err, out.String())
		}
		if h := FromTriples(back...); !h.Equal(g) {
			t.Fatalf("round trip changed the set:\n%swant:\n%s", h, g)
		}
	})
}

// spellsEscape reports whether a term of t contains the text of an
// escape, %3E or %0A.  The format escapes '>' and newline but not '%',
// so such a term is written as <a%3Eb> and reads back as "a>b": it
// has no round trip.  Only a bare word can hold one, since <...> text
// is unescaped on reading.
func spellsEscape(t Triple) bool {
	for _, iri := range []IRI{t.S, t.P, t.O} {
		if strings.Contains(string(iri), "%3E") || strings.Contains(string(iri), "%0A") {
			return true
		}
	}
	return false
}
