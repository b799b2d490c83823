package sparql

import (
	"sort"
	"strings"
)

// MappingSet is a set of mappings Ω with deterministic iteration order
// (insertion order) and hash-based deduplication.
type MappingSet struct {
	items []Mapping
	keys  []string // keys[i] is items[i].key(), the string index holds
	index map[string]struct{}
}

// NewMappingSet returns a set containing the given mappings.
func NewMappingSet(mus ...Mapping) *MappingSet {
	s := &MappingSet{index: make(map[string]struct{}, len(mus))}
	for _, mu := range mus {
		s.Add(mu)
	}
	return s
}

// Add inserts µ; it reports whether µ was new.
func (s *MappingSet) Add(mu Mapping) bool {
	return s.addKeyed(mu, mu.key())
}

// addKeyed inserts µ with a precomputed canonical key; callers must
// pass exactly mu.key().  The row decode boundary uses it to emit keys
// in slot order instead of re-deriving and sorting each domain.
func (s *MappingSet) addKeyed(mu Mapping, key string) bool {
	if _, ok := s.index[key]; ok {
		return false
	}
	s.index[key] = struct{}{}
	s.items = append(s.items, mu)
	s.keys = append(s.keys, key)
	return true
}

// Contains reports whether µ ∈ Ω.
func (s *MappingSet) Contains(mu Mapping) bool {
	_, ok := s.index[mu.key()]
	return ok
}

// Len reports |Ω|.
func (s *MappingSet) Len() int { return len(s.items) }

// Mappings returns the members in insertion order.  The slice is shared;
// callers must not modify it.
func (s *MappingSet) Mappings() []Mapping { return s.items }

// Sorted returns the members sorted by canonical key, for deterministic
// output.  The keys are the ones insertion computed.
func (s *MappingSet) Sorted() []Mapping {
	order := make([]int, len(s.items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return s.keys[order[i]] < s.keys[order[j]] })
	out := make([]Mapping, len(order))
	for i, j := range order {
		out[i] = s.items[j]
	}
	return out
}

// Join returns Ω1 ⋈ Ω2 = {µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ∼ µ2}.
func (s *MappingSet) Join(t *MappingSet) *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		for _, nu := range t.items {
			if mu.CompatibleWith(nu) {
				out.Add(mu.Merge(nu))
			}
		}
	}
	return out
}

// Union returns Ω1 ∪ Ω2.
func (s *MappingSet) Union(t *MappingSet) *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		out.Add(mu)
	}
	for _, mu := range t.items {
		out.Add(mu)
	}
	return out
}

// Diff returns Ω1 ∖ Ω2 = {µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2}.
func (s *MappingSet) Diff(t *MappingSet) *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		ok := true
		for _, nu := range t.items {
			if mu.CompatibleWith(nu) {
				ok = false
				break
			}
		}
		if ok {
			out.Add(mu)
		}
	}
	return out
}

// LeftJoin returns Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2).
func (s *MappingSet) LeftJoin(t *MappingSet) *MappingSet {
	return s.Join(t).Union(s.Diff(t))
}

// Project returns {µ|V | µ ∈ Ω}.
func (s *MappingSet) Project(vars []Var) *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		out.Add(mu.Restrict(vars))
	}
	return out
}

// Filter returns {µ ∈ Ω | µ ⊨ R}.
func (s *MappingSet) Filter(cond Condition) *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		if cond.Eval(mu) {
			out.Add(mu)
		}
	}
	return out
}

// SubsumedBy reports Ω1 ⊑ Ω2: every µ1 ∈ Ω1 is subsumed by some µ2 ∈ Ω2.
func (s *MappingSet) SubsumedBy(t *MappingSet) bool {
	for _, mu := range s.items {
		found := false
		for _, nu := range t.items {
			if mu.SubsumedBy(nu) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets contain exactly the same mappings.
func (s *MappingSet) Equal(t *MappingSet) bool {
	if s.Len() != t.Len() {
		return false
	}
	for k := range s.index {
		if _, ok := t.index[k]; !ok {
			return false
		}
	}
	return true
}

// SubsumptionEquivalent reports Ω1 ⊑ Ω2 and Ω2 ⊑ Ω1, i.e. the two sets
// are equally informative (Section 4).
func (s *MappingSet) SubsumptionEquivalent(t *MappingSet) bool {
	return s.SubsumedBy(t) && t.SubsumedBy(s)
}

// String renders the set as one mapping per line, sorted, e.g. for test
// failure output.
func (s *MappingSet) String() string {
	mus := s.Sorted()
	lines := make([]string, len(mus))
	for i, mu := range mus {
		lines[i] = mu.String()
	}
	return "{" + strings.Join(lines, ", ") + "}"
}

// Table renders the set as an aligned text table in the style of the
// paper's examples: one column per variable (union of all domains,
// sorted), one row per mapping, empty cells for unbound variables.
func (s *MappingSet) Table() string {
	varSet := make(map[Var]struct{})
	for _, mu := range s.items {
		for v := range mu {
			varSet[v] = struct{}{}
		}
	}
	vars := make([]Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })

	header := make([]string, len(vars))
	widths := make([]int, len(vars))
	for i, v := range vars {
		header[i] = v.String()
		widths[i] = len(header[i])
	}
	rows := make([][]string, 0, len(s.items))
	for _, mu := range s.Sorted() {
		row := make([]string, len(vars))
		for i, v := range vars {
			if iri, ok := mu[v]; ok {
				row[i] = string(iri)
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	if len(rows) == 0 {
		b.WriteString("(no solutions)\n")
	}
	return b.String()
}

// Maximal returns Ω_max: the mappings of Ω that are not properly
// subsumed by another mapping of Ω (the semantics of NS, Section 5.1).
// It uses the domain-bucketed algorithm; see MaximalNaive for the
// quadratic reference implementation.
func (s *MappingSet) Maximal() *MappingSet { return s.MaximalBucketed() }

// MaximalNaive computes Ω_max by pairwise subsumption checks, O(|Ω|²).
// Kept as the reference implementation and ablation baseline (E17).
func (s *MappingSet) MaximalNaive() *MappingSet {
	out := NewMappingSet()
	for _, mu := range s.items {
		maximal := true
		for _, nu := range s.items {
			if mu.ProperlySubsumedBy(nu) {
				maximal = false
				break
			}
		}
		if maximal {
			out.Add(mu)
		}
	}
	return out
}

// MaximalBucketed computes Ω_max by grouping mappings by domain: a
// mapping µ can only be properly subsumed by a mapping whose domain is
// a strict superset of dom(µ), so for each pair of domains (D ⊊ D') we
// hash the D-restrictions of the D'-bucket and probe each µ in the
// D-bucket in O(1).
func (s *MappingSet) MaximalBucketed() *MappingSet {
	type bucket struct {
		vars []Var
		mus  []Mapping
	}
	buckets := make(map[string]*bucket)
	order := make([]string, 0)
	for _, mu := range s.items {
		dk := mu.domainKey()
		b, ok := buckets[dk]
		if !ok {
			b = &bucket{vars: mu.Domain()}
			buckets[dk] = b
			order = append(order, dk)
		}
		b.mus = append(b.mus, mu)
	}

	isStrictSubset := func(a, b []Var) bool {
		if len(a) >= len(b) {
			return false
		}
		j := 0
		for _, v := range a {
			for j < len(b) && b[j] < v {
				j++
			}
			if j >= len(b) || b[j] != v {
				return false
			}
			j++
		}
		return true
	}

	// For each bucket D, precompute the union of restricted-key sets of
	// all strict-superset buckets.
	out := NewMappingSet()
	for _, dk := range order {
		b := buckets[dk]
		var superKeys map[string]struct{}
		for dk2, b2 := range buckets {
			if dk2 == dk || !isStrictSubset(b.vars, b2.vars) {
				continue
			}
			if superKeys == nil {
				superKeys = make(map[string]struct{})
			}
			for _, nu := range b2.mus {
				superKeys[nu.Restrict(b.vars).key()] = struct{}{}
			}
		}
		for _, mu := range b.mus {
			if superKeys != nil {
				if _, subsumed := superKeys[mu.key()]; subsumed {
					continue
				}
			}
			out.Add(mu)
		}
	}
	// Restore deterministic insertion order relative to s.
	final := NewMappingSet()
	for _, mu := range s.items {
		if out.Contains(mu) {
			final.Add(mu)
		}
	}
	return final
}
