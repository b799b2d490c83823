package sparql

import (
	"sort"

	"repro/internal/rdf"
)

// Rows is a final answer set in ID form — the engine's exit.  An
// encoder (internal/exec's ResultWriter) reads the flat arrays and
// never builds a Mapping; library callers turn it into the string
// facade with MappingSet.
//
// Row i binds slot j iff bit j%64 of Masks[i*Words+j/64] is set, and
// then IDs[i*len(Vars)+j] is its image; unbound slots hold unspecified
// values.  No two rows are equal as partial mappings.  Answers of the
// row engine have Words == 1 and share the store's dictionary, so
// they may be read only while the store may be; a pattern wider than
// MaxSchemaVars comes from the string algebra and is laid out the
// same way over more mask words and a dictionary of its own.
type Rows struct {
	Vars  []Var // slot order: sorted
	Dict  *rdf.Dict
	Words int
	Masks []uint64
	IDs   []rdf.ID

	set  *RowSet     // the row engine's answer, or
	wide *MappingSet // the string fallback's
}

// Rows returns the set as an answer over d, sharing its arrays.
func (s *RowSet) Rows(d *rdf.Dict) Rows {
	return Rows{Vars: s.Schema.vars, Dict: d, Words: 1, Masks: s.masks, IDs: s.ids, set: s}
}

// RowsOf lays a MappingSet out as Rows over a private dictionary: the
// adapter that lets the string fallback leave through the same exit.
func RowsOf(ms *MappingSet) Rows {
	seen := make(map[Var]struct{})
	var vars []Var
	for _, mu := range ms.items {
		for v := range mu {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				vars = append(vars, v)
			}
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	slot := make(map[Var]int, len(vars))
	for i, v := range vars {
		slot[v] = i
	}
	r := Rows{Vars: vars, Dict: rdf.NewDict(), Words: (len(vars) + 63) / 64, wide: ms}
	r.Masks = make([]uint64, len(ms.items)*r.Words)
	r.IDs = make([]rdf.ID, len(ms.items)*len(vars))
	for i, mu := range ms.items {
		for v, iri := range mu {
			j := slot[v]
			r.Masks[i*r.Words+j/64] |= 1 << uint(j%64)
			r.IDs[i*len(vars)+j] = r.Dict.Intern(iri)
		}
	}
	return r
}

// Len reports the number of rows.
func (r Rows) Len() int {
	switch {
	case r.set != nil:
		return r.set.Len()
	case r.wide != nil:
		return r.wide.Len()
	}
	return 0
}

// MappingSet materialises the answer as string mappings.
func (r Rows) MappingSet() *MappingSet {
	switch {
	case r.set != nil:
		return r.set.MappingSet(r.Dict)
	case r.wide != nil:
		return r.wide
	}
	return NewMappingSet()
}

// Graph materialises the answer of a CONSTRUCT query: the template
// instantiated on every row that binds all of a template triple's
// variables, one budget step per row.
func (r Rows) Graph(template []TriplePattern, b *Budget) (*rdf.Graph, error) {
	out := rdf.NewGraph()
	for _, mu := range r.MappingSet().Mappings() {
		if err := b.Step(); err != nil {
			return nil, err
		}
		for _, t := range template {
			if tr, ok := mu.Apply(t); ok {
				out.AddTriple(tr)
			}
		}
	}
	return out, nil
}
