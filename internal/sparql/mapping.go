package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Mapping is a partial function µ : V → I from variables to IRIs
// (Section 2 of the paper).  The map keys are dom(µ).
type Mapping map[Var]rdf.IRI

// M builds a mapping from alternating variable/IRI pairs:
// M("X", "juan", "Y", "juan@puc.cl").  It panics on an odd argument
// count; intended for tests and examples.
func M(pairs ...string) Mapping {
	if len(pairs)%2 != 0 {
		panic("sparql: M requires an even number of arguments")
	}
	mu := make(Mapping, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		mu[Var(pairs[i])] = rdf.IRI(pairs[i+1])
	}
	return mu
}

// Domain returns dom(µ) sorted by variable name.
func (mu Mapping) Domain() []Var {
	vs := make([]Var, 0, len(mu))
	for v := range mu {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Clone returns a copy of µ.
func (mu Mapping) Clone() Mapping {
	out := make(Mapping, len(mu))
	for v, i := range mu {
		out[v] = i
	}
	return out
}

// CompatibleWith reports µ1 ∼ µ2: the two mappings agree on every
// variable in dom(µ1) ∩ dom(µ2).
func (mu Mapping) CompatibleWith(nu Mapping) bool {
	a, b := mu, nu
	if len(b) < len(a) {
		a, b = b, a
	}
	for v, i := range a {
		if j, ok := b[v]; ok && j != i {
			return false
		}
	}
	return true
}

// Merge returns µ1 ∪ µ2, the extension of µ1 by the bindings of µ2.
// The caller must ensure µ1 ∼ µ2.
func (mu Mapping) Merge(nu Mapping) Mapping {
	out := make(Mapping, len(mu)+len(nu))
	for v, i := range mu {
		out[v] = i
	}
	for v, i := range nu {
		out[v] = i
	}
	return out
}

// SubsumedBy reports µ1 ⪯ µ2: dom(µ1) ⊆ dom(µ2) and the mappings agree
// on dom(µ1) (Section 3.1).
func (mu Mapping) SubsumedBy(nu Mapping) bool {
	if len(mu) > len(nu) {
		return false
	}
	for v, i := range mu {
		if j, ok := nu[v]; !ok || j != i {
			return false
		}
	}
	return true
}

// ProperlySubsumedBy reports µ1 ≺ µ2: µ1 ⪯ µ2 and µ1 ≠ µ2.
func (mu Mapping) ProperlySubsumedBy(nu Mapping) bool {
	return len(mu) < len(nu) && mu.SubsumedBy(nu)
}

// Equal reports whether the two mappings are identical.
func (mu Mapping) Equal(nu Mapping) bool {
	return len(mu) == len(nu) && mu.SubsumedBy(nu)
}

// Restrict returns µ|V: µ restricted to dom(µ) ∩ V.
func (mu Mapping) Restrict(vars []Var) Mapping {
	out := make(Mapping)
	for _, v := range vars {
		if i, ok := mu[v]; ok {
			out[v] = i
		}
	}
	return out
}

// Bind returns a copy of µ extended with v → iri (overwriting any
// previous binding of v).
func (mu Mapping) Bind(v Var, iri rdf.IRI) Mapping {
	out := mu.Clone()
	out[v] = iri
	return out
}

// Apply returns µ(t), the result of replacing every variable of the
// triple pattern by its image.  ok is false if var(t) ⊄ dom(µ).
func (mu Mapping) Apply(t TriplePattern) (rdf.Triple, bool) {
	s, ok := t.S.Resolve(mu)
	if !ok {
		return rdf.Triple{}, false
	}
	p, ok := t.P.Resolve(mu)
	if !ok {
		return rdf.Triple{}, false
	}
	o, ok := t.O.Resolve(mu)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

// key returns a canonical string for µ suitable for use as a set key:
// "var"="iri"; per binding in sorted variable order, both quoted as
// strconv.Quote does.  RowSet.MappingSet builds the same string in
// slot order.
func (mu Mapping) key() string {
	var b []byte
	for _, v := range mu.Domain() {
		b = strconv.AppendQuote(b, string(v))
		b = append(b, '=')
		b = strconv.AppendQuote(b, string(mu[v]))
		b = append(b, ';')
	}
	return string(b)
}

// domainKey returns a canonical string for dom(µ).
func (mu Mapping) domainKey() string {
	var b []byte
	for _, v := range mu.Domain() {
		b = strconv.AppendQuote(b, string(v))
		b = append(b, ';')
	}
	return string(b)
}

// String renders µ in the paper's notation, e.g.
// "[?X → juan, ?Y → juan@puc.cl]", with variables sorted.
func (mu Mapping) String() string {
	vs := mu.Domain()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s → %s", v, mu[v])
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
