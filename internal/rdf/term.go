// Package rdf implements the RDF data model used throughout the library:
// IRIs, triples, and (indexed) RDF graphs.
//
// Following the paper (Section 2), a triple is an element of I × I × I
// where I is a set of International Resource Identifiers, and an RDF
// graph is a finite set of such triples.  As in the paper, every string
// may be used as an IRI, and constant values and blank nodes are not
// modelled; the results of the paper are unaffected by their absence.
package rdf

import (
	"fmt"
	"strings"
)

// IRI is an International Resource Identifier.  As in the paper, any
// string is admitted as an IRI.
type IRI string

// String returns the IRI as a plain string.
func (i IRI) String() string { return string(i) }

// iriEscaper and iriUnescaper are the two directions of the N-Triples
// IRI escaping ('>' and newline, the only bytes that would end an
// angle-bracketed term or a statement line early).  A Replacer is
// immutable once built and safe for concurrent use; building one per
// call used to be the hottest line of the N-Triples paths.
var (
	iriEscaper   = strings.NewReplacer(">", "%3E", "\n", "%0A")
	iriUnescaper = strings.NewReplacer("%3E", ">", "%0A", "\n")
)

// NTriples returns the IRI in angle-bracket N-Triples form.  IRIs that
// contain characters outside the bare-word alphabet are escaped.
func (i IRI) NTriples() string {
	return "<" + iriEscaper.Replace(string(i)) + ">"
}

// AppendNTriples appends what NTriples returns to dst; an IRI with
// nothing to escape — nearly every one — is copied without allocating.
func (i IRI) AppendNTriples(dst []byte) []byte {
	dst = append(dst, '<')
	if strings.IndexByte(string(i), '>') < 0 && strings.IndexByte(string(i), '\n') < 0 {
		dst = append(dst, i...)
	} else {
		dst = append(dst, iriEscaper.Replace(string(i))...)
	}
	return append(dst, '>')
}

// UnescapeIRI is the inverse of the escaping NTriples applies: raw is
// the text between the angle brackets.  Text without a '%' — nearly
// every IRI — is returned as is, without allocating.
func UnescapeIRI(raw string) IRI {
	if strings.IndexByte(raw, '%') < 0 {
		return IRI(raw)
	}
	return IRI(iriUnescaper.Replace(raw))
}

// Triple is an RDF triple (subject, predicate, object).
type Triple struct {
	S, P, O IRI
}

// T is a convenience constructor for a Triple.
func T(s, p, o IRI) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as "(s, p, o)" in the notation of the paper.
func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.S, t.P, t.O)
}

// NTriples renders the triple as an N-Triples statement line.
func (t Triple) NTriples() string {
	return t.S.NTriples() + " " + t.P.NTriples() + " " + t.O.NTriples() + " ."
}

// Less defines a total order on triples (lexicographic on S, P, O),
// used to produce deterministic listings of graphs.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}
