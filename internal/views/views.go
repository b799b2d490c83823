// Package views implements materialized CONSTRUCT views with
// incremental maintenance under triple insertions.
//
// This is the practical payoff of Section 6 of the paper: a CONSTRUCT
// query in the monotone fragment CONSTRUCT[AUF] (Corollary 6.8) never
// retracts output triples when the base graph grows, so a materialized
// view can be maintained by *adding* the triples derived from the
// delta — no recomputation, no deletions.  Non-monotone queries (OPT,
// NS or SELECT in the WHERE clause) are rejected at construction time;
// for them, monotone maintenance would be unsound.
//
// The delta evaluation is the semi-naive rule set over the mapping
// algebra (with G the already-updated base graph):
//
//	Δ⟦t⟧            = matches of t in Δ
//	Δ⟦P1 AND P2⟧    = Δ⟦P1⟧ ⋈ ⟦P2⟧_G  ∪  ⟦P1⟧_G ⋈ Δ⟦P2⟧
//	Δ⟦P1 UNION P2⟧  = Δ⟦P1⟧ ∪ Δ⟦P2⟧
//	Δ⟦P FILTER R⟧   = {µ ∈ Δ⟦P⟧ | µ ⊨ R}
//
// which computes a superset of the genuinely new answers and a subset
// of ⟦P⟧_G — exactly what is needed to extend the view.  The AND rule's
// ⟦·⟧_G sides are bind joins driven by the (small) delta side, so an
// insert costs ~|Δ| index probes, independent of |G|.
//
// The delta rules run on the ID-native row runtime: the delta is a
// slice of rdf.IDTriple in the base dictionary's ID space, Δ⟦t⟧ scans
// it with sparql.EvalTripleDeltaB, and the ⟦·⟧_G sides are
// sparql.BindJoinScan joins.  A WHERE clause wider than
// sparql.MaxSchemaVars is run again in full through plan.Run.
package views

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// View is a materialized monotone CONSTRUCT view over a base graph.
type View struct {
	query sparql.ConstructQuery
	base  rdf.Store
	out   rdf.Store
	sc    *sparql.VarSchema // nil: WHERE wider than MaxSchemaVars, re-run in full
}

// New materializes a CONSTRUCT[AUF] view over a snapshot of the base
// graph.  The base graph is cloned into a fresh in-memory store: the
// view is updated exclusively through Insert, so that its state stays
// consistent.  To maintain a view directly over a shared (for example
// durable) store, use Over.
func New(q sparql.ConstructQuery, base rdf.Store) (*View, error) {
	return newView(q, base, true)
}

// Over materializes a CONSTRUCT[AUF] view directly over base, without
// cloning it.  The view adopts the store: after Over returns, base
// must be mutated exclusively through the view's Insert methods, which
// keep (base, out) consistent and stage each insert as one atomic
// durability batch — on a durable backend, a rolled-back insert leaves
// no committed WAL records.
func Over(q sparql.ConstructQuery, base rdf.Store) (*View, error) {
	return newView(q, base, false)
}

func newView(q sparql.ConstructQuery, base rdf.Store, clone bool) (*View, error) {
	if !sparql.InFragment(q.Where, sparql.FragmentAUF) {
		return nil, fmt.Errorf("views: WHERE clause outside CONSTRUCT[AUF] (the monotone fragment, Corollary 6.8): %s", q.Where)
	}
	v := &View{query: q, base: base}
	if clone {
		v.base = rdf.CloneStore(base)
	}
	if sc, ok := sparql.SchemaFor(q.Where); ok {
		v.sc = sc
	}
	v.out = sparql.EvalConstruct(v.base, q)
	return v, nil
}

// Graph returns the materialized output graph.  Callers must not
// modify it.
func (v *View) Graph() rdf.Store { return v.out }

// Base returns the view's snapshot of the base graph.  Callers must
// not modify it; use Insert.
func (v *View) Base() rdf.Store { return v.base }

// Insert adds triples to the base graph and incrementally extends the
// output.  It returns the number of new output triples.  Ungoverned
// legacy entry point; servers should use InsertCtx or InsertBudget.
func (v *View) Insert(triples ...rdf.Triple) int {
	added, err := v.InsertBudget(nil, triples...)
	if err != nil {
		return 0
	}
	return added
}

// InsertCtx is Insert bounded by a context: if the delta evaluation is
// canceled, the insert is rolled back (see InsertBudget).
func (v *View) InsertCtx(ctx context.Context, triples ...rdf.Triple) (int, error) {
	return v.InsertBudget(sparql.NewBudget(ctx), triples...)
}

// InsertBudget is Insert under a resource governor.  The operation is
// atomic with respect to failure: if the governor aborts the delta
// evaluation, the freshly inserted base triples are removed again and
// the output graph is left untouched, so the view never holds a
// half-maintained state.  The returned error is the budget's typed
// error.
func (v *View) InsertBudget(b *sparql.Budget, triples ...rdf.Triple) (int, error) {
	return v.InsertObserved(b, nil, triples...)
}

// InsertObserved is InsertBudget with an execution profile: when prof
// is non-nil, a "view-insert" node is attached under it recording the
// delta size (rows in), the new output triples (rows out), wall time,
// and budget consumption of the delta evaluation.
func (v *View) InsertObserved(b *sparql.Budget, prof *obs.Node, triples ...rdf.Triple) (int, error) {
	if err := b.Err(); err != nil {
		return 0, err // a poisoned budget fails before mutating the base
	}
	var node *obs.Node
	var start time.Time
	var steps0, rows0, bytes0 int64
	if prof != nil {
		node = prof.Child("view-insert", "")
		start = time.Now()
		steps0, rows0, bytes0 = b.Counters()
	}
	finish := func(deltaLen, added int) {
		if node == nil {
			return
		}
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		node.AddRowsIn(int64(deltaLen))
		node.AddRowsOut(int64(added))
	}
	// The whole insert is one durability batch: the adds (and, on the
	// unwind path, their compensating removes) stay staged until the
	// delta evaluation succeeds, so a durable base commits either one
	// atomic WAL record for the full insert or nothing at all.
	v.base.BeginBatch()
	var delta []rdf.Triple
	for _, t := range triples {
		if v.base.AddTriple(t) {
			delta = append(delta, t)
		}
	}
	if len(delta) == 0 {
		v.base.AbortBatch() // nothing staged; nothing to persist
		finish(0, 0)
		return 0, nil
	}
	newAnswers, err := v.deltaAnswers(delta, b)
	if err != nil {
		// Unwind: the output was not touched yet; removing the delta
		// restores the base, keeping (base, out) consistent.  The
		// removes land in the same open batch as the adds, and the
		// abort discards both — a rolled-back insert must not leave
		// committed WAL records on a durable base.
		for _, t := range delta {
			v.base.Remove(t.S, t.P, t.O)
		}
		v.base.AbortBatch()
		finish(len(delta), 0)
		return 0, err
	}
	if err := v.base.CommitBatch(); err != nil {
		// The log rejected the batch (I/O failure on a durable base).
		// Re-sync memory with the log's view of the world: remove the
		// delta again, discarding the compensating records unwritten.
		v.base.BeginBatch()
		for _, t := range delta {
			v.base.Remove(t.S, t.P, t.O)
		}
		v.base.AbortBatch()
		finish(len(delta), 0)
		return 0, err
	}
	added := 0
	for _, mu := range newAnswers.Mappings() {
		for _, tp := range v.query.Template {
			if tr, ok := mu.Apply(tp); ok {
				if v.out.AddTriple(tr) {
					added++
				}
			}
		}
	}
	finish(len(delta), added)
	return added, nil
}

// deltaAnswers computes the delta answer set.  A WHERE clause wider
// than the row engine is run again in full: it is monotone, so every
// answer over the grown graph that is not new is already in the view,
// and adding them all is exact.
//
// The probes may fan out across goroutines (see probe), all reading
// the base graph; the read snapshot makes any concurrent mutation of
// the base — which would corrupt an index under a worker — fail
// loudly at the write site for the duration of the evaluation.
func (v *View) deltaAnswers(delta []rdf.Triple, b *sparql.Budget) (*sparql.MappingSet, error) {
	release := v.base.AcquireRead()
	defer release()
	if v.sc == nil {
		rows, err := plan.Run(v.base, plan.Prepare(v.base, v.query.Where), b, plan.Options{})
		if err != nil {
			return nil, err
		}
		return rows.MappingSet(), nil
	}
	// AddTriple has interned the delta's IRIs into the base dictionary,
	// so the delta maps losslessly into ID space.
	d := v.base.Dict()
	idDelta := make([]rdf.IDTriple, len(delta))
	for i, t := range delta {
		s, _ := d.Lookup(t.S)
		p, _ := d.Lookup(t.P)
		o, _ := d.Lookup(t.O)
		idDelta[i] = rdf.IDTriple{S: s, P: p, O: o}
	}
	rs, err := v.deltaRows(idDelta, v.query.Where, b)
	if err != nil {
		return nil, err
	}
	return rs.MappingSet(d), nil
}

func (v *View) deltaRows(delta []rdf.IDTriple, p sparql.Pattern, b *sparql.Budget) (*sparql.RowSet, error) {
	switch q := p.(type) {
	case sparql.TriplePattern:
		return sparql.EvalTripleDeltaB(q, v.sc, v.base.Dict(), delta, b)
	case sparql.And:
		dl, err := v.deltaRows(delta, q.L, b)
		if err != nil {
			return nil, err
		}
		l, err := v.probe(dl, q.R, b)
		if err != nil {
			return nil, err
		}
		dr, err := v.deltaRows(delta, q.R, b)
		if err != nil {
			return nil, err
		}
		r, err := v.probe(dr, q.L, b)
		if err != nil {
			return nil, err
		}
		return l.UnionB(r, b)
	case sparql.Union:
		l, err := v.deltaRows(delta, q.L, b)
		if err != nil {
			return nil, err
		}
		r, err := v.deltaRows(delta, q.R, b)
		if err != nil {
			return nil, err
		}
		return l.UnionB(r, b)
	case sparql.Filter:
		inner, err := v.deltaRows(delta, q.P, b)
		if err != nil {
			return nil, err
		}
		return inner.FilterB(sparql.CompileCond(q.Cond, v.sc, v.base.Dict()), b)
	default:
		// New() admits only CONSTRUCT[AUF]; reaching this means the
		// pattern was mutated behind the view's back.
		return nil, sparql.ErrUnsupportedPattern{Pattern: p}
	}
}

// parProbeMin is the delta size (in rows) below which a bind join stays
// on one goroutine: splitting the probes only pays off once there are
// enough of them to share out.
const parProbeMin = 64

// probe computes small ⋈ ⟦p⟧_G by index nested loops, recursing over
// the AUF algebra: a triple bind-joins small against the indexes,
// AND composes (small ⋈ ⟦P1⟧ ⋈ ⟦P2⟧), UNION unions.  Large deltas fan
// the bind joins out across GOMAXPROCS goroutines sharing b, whose
// accounting is atomic, so one governor bounds the whole insert.
//
// A FILTER judges its pattern's own answers ν, not the merged rows
// µ ∪ ν: a variable that µ binds and ν leaves unbound must read as
// unbound.  So the probe goes in with small cut down to the variables
// every ν binds (transform.CertainlyBound), where µ ∪ ν is ν itself; the
// condition filters those, and they are joined back onto small.
func (v *View) probe(small *sparql.RowSet, p sparql.Pattern, b *sparql.Budget) (*sparql.RowSet, error) {
	switch q := p.(type) {
	case sparql.TriplePattern:
		return sparql.BindJoinScanPar(v.base, small, q, b, runtime.GOMAXPROCS(0), parProbeMin, nil)
	case sparql.And:
		l, err := v.probe(small, q.L, b)
		if err != nil {
			return nil, err
		}
		return v.probe(l, q.R, b)
	case sparql.Union:
		l, err := v.probe(small, q.L, b)
		if err != nil {
			return nil, err
		}
		r, err := v.probe(small, q.R, b)
		if err != nil {
			return nil, err
		}
		return l.UnionB(r, b)
	case sparql.Filter:
		var cb []sparql.Var
		for x := range transform.CertainlyBound(q.P) {
			cb = append(cb, x)
		}
		keys, err := small.ProjectB(v.sc.SlotMask(cb), b)
		if err != nil {
			return nil, err
		}
		own, err := v.probe(keys, q.P, b)
		if err != nil {
			return nil, err
		}
		if own, err = own.FilterB(sparql.CompileCond(q.Cond, v.sc, v.base.Dict()), b); err != nil {
			return nil, err
		}
		return small.JoinB(own, b)
	default:
		return nil, sparql.ErrUnsupportedPattern{Pattern: p}
	}
}
