package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadGraph parses a graph in the line-oriented triple format produced
// by Graph.String: ReadTriples, then one AddTriples batch.
func ReadGraph(r io.Reader) (*Graph, error) {
	ts, err := ReadTriples(r)
	if err != nil {
		return nil, err
	}
	g := NewGraph()
	g.AddTriples(ts)
	return g, nil
}

// ReadTriples parses the line-oriented triple format produced by
// Graph.String into the triples it lists, in order and with repeats,
// building no graph.  Each non-empty, non-comment line is
//
//	<s> <p> <o> .
//
// where each term is either an angle-bracketed IRI or a bare word (any
// run of characters without whitespace, '<', '>' or '#').  The trailing
// dot is optional.  Lines starting with '#' are comments.
func ReadTriples(r io.Reader) ([]Triple, error) {
	var ts []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024) // lines up to 16 MiB; the buffer starts small and grows only for long lines
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ts = append(ts, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ts, nil
}

// ParseGraphString parses a graph from a string; see ReadGraph.
func ParseGraphString(s string) (*Graph, error) {
	return ReadGraph(strings.NewReader(s))
}

// MustParseGraph is ParseGraphString but panics on error.  Intended for
// tests and examples with literal graph text.
func MustParseGraph(s string) *Graph {
	g, err := ParseGraphString(s)
	if err != nil {
		panic(err)
	}
	return g
}

// ParseTripleLine parses a single triple statement, with optional
// trailing dot.
func ParseTripleLine(line string) (Triple, error) {
	rest := strings.TrimSpace(line)
	rest = strings.TrimSuffix(rest, ".")
	terms := make([]IRI, 0, 3)
	for i := 0; i < 3; i++ {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return Triple{}, fmt.Errorf("expected 3 terms, got %d in %q", len(terms), line)
		}
		var term IRI
		var err error
		term, rest, err = readTerm(rest)
		if err != nil {
			return Triple{}, err
		}
		terms = append(terms, term)
	}
	if strings.TrimSpace(rest) != "" {
		return Triple{}, fmt.Errorf("trailing content %q in %q", rest, line)
	}
	return Triple{S: terms[0], P: terms[1], O: terms[2]}, nil
}

func readTerm(s string) (IRI, string, error) {
	if s[0] == '<' {
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI in %q", s)
		}
		return UnescapeIRI(s[1:end]), s[end+1:], nil
	}
	end, reserved := 0, false
	for ; end < len(s) && s[end] != ' ' && s[end] != '\t'; end++ {
		reserved = reserved || s[end] == '<' || s[end] == '>' || s[end] == '#'
	}
	if reserved {
		return "", "", fmt.Errorf("bare term %q contains reserved character", s[:end])
	}
	return IRI(s[:end]), s[end:], nil
}

// WriteGraph writes the store's contents in sorted N-Triples form.
func WriteGraph(w io.Writer, g Store) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := bw.WriteString(t.NTriples()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
