// Package nssparql is an implementation of NS-SPARQL, the RDF query
// language of Arenas & Ugarte, "Designing a Query Language for RDF:
// Marrying Open and Closed Worlds" (PODS 2016).
//
// The package is a facade over the internal building blocks:
//
//   - an RDF graph store (internal/rdf);
//   - the SPARQL graph-pattern algebra with the NS (not-subsumed)
//     operator and CONSTRUCT queries (internal/sparql);
//   - a parser for a concrete NS-SPARQL syntax (internal/parser);
//   - the constructive rewrites of the paper — OPT→NS, NS elimination
//     (Theorem 5.1), SELECT-free CONSTRUCT (Proposition 6.7), and the
//     well-designed → SP–SPARQL translation (Proposition 5.6)
//     (internal/transform, internal/wdpt);
//   - static and semantic analyses — well designedness, fragment
//     classification, weak-monotonicity / monotonicity /
//     subsumption-freeness testing (internal/analysis);
//   - the Section 4 first-order translation used as a differential
//     oracle (internal/fol);
//   - the Section 7 complexity gadgets over a SAT substrate
//     (internal/reduction, internal/sat).
//
// # Quick start
//
//	g := nssparql.NewGraph()
//	g.Add("juan", "was_born_in", "chile")
//	p, _ := nssparql.ParsePattern(
//	    `NS((?x was_born_in chile) UNION ((?x was_born_in chile) AND (?x email ?e)))`)
//	for _, mu := range nssparql.Eval(g, p).Mappings() {
//	    fmt.Println(mu)
//	}
//
// See the examples/ directory for complete programs, and DESIGN.md and
// EXPERIMENTS.md for the mapping from the paper's results to this
// code base.
package nssparql

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
	"repro/internal/views"
	"repro/internal/wdpt"
)

// Re-exported core types.  The facade uses type aliases so that values
// flow freely between the public API and the internal packages.
type (
	// IRI is an RDF resource identifier; any string is admitted.
	IRI = rdf.IRI
	// Triple is an RDF triple (subject, predicate, object).
	Triple = rdf.Triple
	// Graph is a finite set of RDF triples with SPO/POS/OSP indexes —
	// the in-memory memstore backend of the Store interface.
	Graph = rdf.Graph
	// Store is the pluggable storage interface every evaluator accepts:
	// *Graph is the default in-memory backend, and
	// internal/rdf/durable adds a WAL+snapshot persistent backend.
	Store = rdf.Store
	// Var is a SPARQL variable (without the leading '?').
	Var = sparql.Var
	// Mapping is a partial function from variables to IRIs.
	Mapping = sparql.Mapping
	// MappingSet is a set of mappings, the result of evaluation.
	MappingSet = sparql.MappingSet
	// Pattern is an NS-SPARQL graph pattern.
	Pattern = sparql.Pattern
	// Condition is a FILTER built-in condition.
	Condition = sparql.Condition
	// ConstructQuery is a CONSTRUCT query.
	ConstructQuery = sparql.ConstructQuery
	// Query is a parsed query: a graph pattern or a CONSTRUCT query.
	Query = parser.Query
	// CheckOpts parameterizes the semantic testers.
	CheckOpts = analysis.CheckOpts
	// Counterexample witnesses a failed semantic property.
	Counterexample = analysis.Counterexample
)

// NewGraph returns an empty RDF graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// FromTriples builds a graph from triples.
func FromTriples(ts ...Triple) *Graph { return rdf.FromTriples(ts...) }

// T builds a triple.
func T(s, p, o IRI) Triple { return rdf.T(s, p, o) }

// ReadGraph parses a graph in N-Triples-style line format.
func ReadGraph(r io.Reader) (*Graph, error) { return rdf.ReadGraph(r) }

// ParseGraph parses a graph from a string.
func ParseGraph(s string) (*Graph, error) { return rdf.ParseGraphString(s) }

// ParsePattern parses an NS-SPARQL graph pattern.
func ParsePattern(s string) (Pattern, error) { return parser.ParsePattern(s) }

// ParseConstruct parses a CONSTRUCT query.
func ParseConstruct(s string) (ConstructQuery, error) { return parser.ParseConstruct(s) }

// ParseQuery parses either kind of query.
func ParseQuery(s string) (Query, error) { return parser.ParseQuery(s) }

// Eval computes ⟦P⟧_G.
func Eval(g Store, p Pattern) *MappingSet { return sparql.Eval(g, p) }

// EvalConstruct computes ans(Q, G) as an RDF graph.
func EvalConstruct(g Store, q ConstructQuery) Store { return sparql.EvalConstruct(g, q) }

// OptToNS rewrites every OPT using the NS operator (Section 5.1).
func OptToNS(p Pattern) Pattern { return transform.OptToNS(p) }

// EliminateNS rewrites NS-SPARQL into plain SPARQL (Theorem 5.1).
func EliminateNS(p Pattern) Pattern { return transform.EliminateNS(p) }

// SelectFree computes the SELECT-free version of a pattern
// (Definition F.1 / Proposition 6.7).
func SelectFree(p Pattern) Pattern { return transform.SelectFree(p) }

// WellDesignedToSimple translates a well-designed SPARQL[AOF] pattern
// into an equivalent simple pattern NS(Q), Q ∈ SPARQL[AUF]
// (Proposition 5.6).
func WellDesignedToSimple(p Pattern) (Pattern, error) {
	return wdpt.WellDesignedToSimple(p)
}

// IsWellDesigned reports Definition 3.4 for SPARQL[AOF] patterns.
func IsWellDesigned(p Pattern) (bool, error) { return analysis.IsWellDesigned(p) }

// IsSimple reports whether p is a simple pattern (Definition 5.3).
func IsSimple(p Pattern) bool { return sparql.IsSimple(p) }

// IsNSPattern reports whether p is an ns-pattern (Definition 5.7).
func IsNSPattern(p Pattern) bool { return sparql.IsNSPattern(p) }

// CheckWeaklyMonotone tests weak monotonicity (Definition 3.2) on
// sampled graph pairs; a non-nil result is a sound counterexample.
func CheckWeaklyMonotone(p Pattern, opts CheckOpts) *Counterexample {
	return analysis.CheckWeaklyMonotone(p, opts)
}

// CheckMonotone tests plain monotonicity on sampled graph pairs.
func CheckMonotone(p Pattern, opts CheckOpts) *Counterexample {
	return analysis.CheckMonotone(p, opts)
}

// CheckSubsumptionFree tests ⟦P⟧_G = ⟦P⟧_G^max on sampled graphs.
func CheckSubsumptionFree(p Pattern, opts CheckOpts) *Counterexample {
	return analysis.CheckSubsumptionFree(p, opts)
}

// MemberOf decides the Section 7 evaluation problem µ ∈ ⟦P⟧_G with the
// constrained membership procedure (bindings of µ become constants).
func MemberOf(g Store, p Pattern, mu Mapping) bool { return sparql.Member(g, p, mu) }

// EvalOptimized evaluates with the query planner (hash joins, join
// reordering, filter push-down); always returns exactly ⟦P⟧_G.  Like
// Eval it panics on a pattern node outside the algebra.
func EvalOptimized(g Store, p Pattern) *MappingSet {
	rows, err := plan.Run(g, plan.Prepare(g, p), nil, plan.Options{})
	if err != nil {
		// Without a budget only a pattern outside the algebra fails;
		// the message is the one Eval panics with.
		panic(err.Error())
	}
	return rows.MappingSet()
}

// NewView materializes a monotone CONSTRUCT[AUF] view with incremental
// insert-only maintenance (Corollary 6.8); see the views package.
func NewView(q ConstructQuery, base Store) (*views.View, error) { return views.New(q, base) }
