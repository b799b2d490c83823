// Package parser implements a concrete text syntax for NS-SPARQL graph
// patterns and CONSTRUCT queries, close to the notation of the paper:
//
//	(?o stands_for sharing_rights) AND
//	    ((?p founder ?o) UNION (?p supporter ?o))
//	SELECT {?p} WHERE (?p founder ?o)
//	NS((?x was_born_in Chile) UNION ((?x was_born_in Chile) AND (?x email ?y)))
//	(?x works_at ?w) FILTER (?w = PUC_Chile && bound(?x))
//	CONSTRUCT {(?n affiliated_to ?u), (?n email ?e)} WHERE ...
//
// Keywords (AND, UNION, OPT/OPTIONAL, FILTER, SELECT, WHERE, NS,
// CONSTRUCT, BOUND, TRUE, FALSE) are case-insensitive and reserved;
// IRIs are bare words or <angle-bracketed>.  Binary operators are
// left-associative with precedence AND > OPT > UNION; FILTER is a
// postfix that binds tighter than AND.  The printers in the sparql
// package emit fully parenthesized text, so precedence only matters for
// hand-written queries.
package parser

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/rdf"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokEq
	tokNeq
	tokBang
	tokAndAnd
	tokOrOr
	tokVar     // ?name
	tokIRI     // bare word or <...>
	tokKeyword // reserved word, upper-cased in val
)

type token struct {
	kind tokenKind
	val  string
	pos  int // byte offset in input, for error messages
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokVar:
		return "?" + t.val
	default:
		return fmt.Sprintf("%q", t.val)
	}
}

var keywords = map[string]bool{
	"AND": true, "UNION": true, "OPT": true, "OPTIONAL": true,
	"FILTER": true, "SELECT": true, "WHERE": true, "NS": true,
	"CONSTRUCT": true, "BOUND": true, "TRUE": true, "FALSE": true,
	"MINUS": true,
}

func isBareRune(r rune) bool {
	switch r {
	case '(', ')', '{', '}', ',', '<', '>', '?', '=', '!', '&', '|', '#':
		return false
	}
	return !unicode.IsSpace(r)
}

// lex tokenizes the whole input.  '#' starts a comment to end of line.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		r := rune(input[i])
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '#':
			for i < n && input[i] != '\n' {
				i++
			}
		case r == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case r == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case r == '{':
			toks = append(toks, token{tokLBrace, "{", i})
			i++
		case r == '}':
			toks = append(toks, token{tokRBrace, "}", i})
			i++
		case r == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case r == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case r == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokNeq, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokBang, "!", i})
				i++
			}
		case r == '&':
			if i+1 < n && input[i+1] == '&' {
				toks = append(toks, token{tokAndAnd, "&&", i})
				i += 2
			} else {
				return nil, fmt.Errorf("offset %d: single '&' (expected '&&')", i)
			}
		case r == '|':
			if i+1 < n && input[i+1] == '|' {
				toks = append(toks, token{tokOrOr, "||", i})
				i += 2
			} else {
				return nil, fmt.Errorf("offset %d: single '|' (expected '||')", i)
			}
		case r == '?':
			j := i + 1
			for j < n && isBareRune(rune(input[j])) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("offset %d: '?' not followed by a variable name", i)
			}
			toks = append(toks, token{tokVar, input[i+1 : j], i})
			i = j
		case r == '<':
			j := strings.IndexByte(input[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("offset %d: unterminated <IRI>", i)
			}
			raw := string(rdf.UnescapeIRI(input[i+1 : i+j]))
			toks = append(toks, token{tokIRI, raw, i})
			i += j + 1
		default:
			if !isBareRune(r) {
				return nil, fmt.Errorf("offset %d: unexpected character %q", i, r)
			}
			j := i
			for j < n && isBareRune(rune(input[j])) {
				j++
			}
			word := input[i:j]
			if up := strings.ToUpper(word); keywords[up] {
				toks = append(toks, token{tokKeyword, up, i})
			} else {
				toks = append(toks, token{tokIRI, word, i})
			}
			i = j
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// iriOf converts a token value to an IRI.
func iriOf(t token) rdf.IRI { return rdf.IRI(t.val) }
