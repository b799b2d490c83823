package exec

// Compiled queries: the shape both servers (nsserve and the cluster
// coordinator nscoord) execute.  A Compiled bundles a prepared plan
// with the query kind — SELECT, ASK or CONSTRUCT — and Run dispatches
// to the matching engine entry point, so the two servers share one
// execution path and cannot drift apart on governor or profiling
// behaviour.

import (
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Compiled is a query ready to execute: the optimized plan plus the
// query kind.  Exactly one of Ask / Construct / neither (SELECT)
// applies.
type Compiled struct {
	// Prepared is the optimized plan of the query's graph pattern (the
	// WHERE pattern, for CONSTRUCT).
	Prepared plan.Prepared
	// Construct is non-nil for CONSTRUCT queries; its Template builds
	// the output graph.
	Construct *sparql.ConstructQuery
	// Ask marks ASK queries.
	Ask bool
}

// Compile prepares pattern against g and tags the result with the
// query kind.  construct may be nil and ask false for plain SELECT /
// pattern queries.  The plan uses the default planner options; an
// ablation builds the Compiled from plan.PrepareOpts itself.
func Compile(g rdf.Store, pattern sparql.Pattern, construct *sparql.ConstructQuery, ask bool) Compiled {
	return Compiled{Prepared: plan.Prepare(g, pattern), Construct: construct, Ask: ask}
}

// Answer is the outcome of Run in ID form.  Bool is set for ASK;
// otherwise Rows is the answer of the query's graph pattern, and for
// CONSTRUCT Template is what to instantiate on it.
type Answer struct {
	Bool     *bool
	Rows     sparql.Rows
	Template []sparql.TriplePattern
}

// Run executes c against g under the budget and planner options and
// returns the answer without materialising it: everything through
// plan.Run, ASK with a cap of one row.  g may hold other contents
// than the store c was prepared against — the plan
// embeds index cardinalities, not data, so it answers correctly on any
// contents (plan.Prepared.Drifted tells when it is no longer a cheap
// plan) — and Rows may be read only while g may be.  Servers hand the
// Answer to a ResultWriter; EvalCompiled materialises it.
func Run(g rdf.Store, c Compiled, b *sparql.Budget, o plan.Options) (Answer, error) {
	if c.Ask {
		o.Cap = 1
	}
	rows, err := plan.Run(g, c.Prepared, b, o)
	if err != nil {
		return Answer{}, err
	}
	if c.Ask {
		ok := rows.Len() > 0
		return Answer{Bool: &ok}, nil
	}
	a := Answer{Rows: rows}
	if c.Construct != nil {
		a.Template = c.Construct.Template
	}
	return a, nil
}

// Result is the outcome of EvalCompiled; exactly one field is set,
// matching the Compiled's kind.
type Result struct {
	// Bool is set for ASK queries.
	Bool *bool
	// Rows is set for SELECT / pattern queries.
	Rows *sparql.MappingSet
	// Graph is set for CONSTRUCT queries.
	Graph rdf.Store
}

// EvalCompiled is Run followed by materialisation into the string
// facade: a MappingSet for SELECT, an rdf.Graph for CONSTRUCT (one
// budget step per row).
func EvalCompiled(g rdf.Store, c Compiled, b *sparql.Budget, o plan.Options) (Result, error) {
	a, err := Run(g, c, b, o)
	switch {
	case err != nil:
		return Result{}, err
	case a.Bool != nil:
		return Result{Bool: a.Bool}, nil
	case c.Construct != nil:
		out, err := a.Rows.Graph(a.Template, b)
		if err != nil {
			return Result{}, err
		}
		return Result{Graph: out}, nil
	}
	return Result{Rows: a.Rows.MappingSet()}, nil
}
