package sparql

import (
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// This file is the row engine's tree evaluator and its worker pool: a
// bounded pool that evaluates independent sub-problems of one query
// concurrently, governed by a single shared Budget (whose counters are
// atomic — see budget.go).  With one worker there is no pool and the
// same evaluator, running the same operators inline, is the serial
// engine.
//
// Three kinds of work fan out:
//
//   - Operator operands.  UNION branches are independent by
//     definition, and the operands of AND/OPT are independently
//     evaluable sub-queries (Semantics and Complexity of SPARQL); the
//     evaluator computes both sides of a binary operator concurrently
//     whenever a worker is free.
//   - Partitioned joins.  Large Join/Diff/LeftJoin probes are
//     partitioned: the chain index of the build side is constructed
//     once (before the fan-out, so workers only read it), contiguous
//     chunks of the probe side stream against it on separate workers
//     into per-partition RowSets, and the partitions are concatenated
//     — they cover disjoint probe rows, so wherever the serial
//     operator appends they cannot share a row (mergeParts).
//   - NS sharding.  Maximal buckets rows by presence mask; buckets
//     only read shared state and produce private "subsumed" lists, so
//     they shard across workers with a final cross-shard sweep that
//     drops every subsumed row in deterministic row order.
//
// Concurrency safety rests on three facts: rdf.Graph and rdf.Dict are
// safe for concurrent readers (the evaluation path only ever calls
// Lookup/IRI/MatchIDs/CountMatchIDs — nothing interns); every worker
// writes only to RowSets it owns (the free list they draw arrays from
// is locked); and the shared Budget is atomic, with a sticky error
// that every worker observes when it next refills its step lease, so
// cancellation and faults drain the pool promptly.
//
// Determinism: the parallel engine returns exactly the same *set* of
// rows as the serial engine (differentially tested per fragment).
// The insertion order of the result RowSet may differ from the serial
// order — partition merges append partition-by-partition — but
// decoded MappingSets compare as sets and server output is sorted, so
// no observable result depends on scheduling.

// DefaultMinPartition is the operand size (in rows) below which
// Join/Diff/Maximal stay serial: partitioning a small build costs more
// in goroutine handoff and partition merging than it saves.
const DefaultMinPartition = 512

// ParOptions tunes the parallel row engine.
type ParOptions struct {
	// Workers is the total worker count, including the calling
	// goroutine: 0 means runtime.GOMAXPROCS(0), 1 runs serially.
	Workers int
	// MinPartition overrides DefaultMinPartition (0 keeps the
	// default).  Tests set it to 1 to force partitioned operators on
	// small inputs.
	MinPartition int
	// Prof, when non-nil, collects an execution profile: one child
	// node per operator, with pool and partition counters on top of
	// the serial engine's metrics.  See EvalRows.
	Prof *obs.Node
	// Cap, when positive, keeps at most Cap rows of the answer: the
	// capped run behind ASK and LIMIT (see evalOp's UNION and SELECT).
	Cap int
}

func (o ParOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o ParOptions) minPartition() int {
	if o.MinPartition <= 0 {
		return DefaultMinPartition
	}
	return o.MinPartition
}

// pool is the bounded set of *extra* workers one evaluation may spawn
// (the calling goroutine is worker zero and is not accounted here).  A
// nil pool means "serial".  Acquisition never blocks: when no token is
// free the caller simply does the work inline, so the pool cannot
// deadlock no matter how operators nest.
type pool struct {
	sem chan struct{}
}

func newPool(extra int) *pool {
	if extra <= 0 {
		return nil
	}
	return &pool{sem: make(chan struct{}, extra)}
}

func (p *pool) tryAcquire() bool {
	if p == nil {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *pool) release() { <-p.sem }

// evaluator is the bottom-up tree evaluator of the row engine, serial
// and parallel: every sub-result uses the same query-wide schema, and
// every operator runs under the one budget so a hostile sub-pattern
// cannot outrun the governor.  With a pool, the two operands of a
// binary operator are evaluated concurrently and the large operators
// partition their input; with none (one worker) the same code runs
// inline.  The evaluator owns the evaluation's free list: every RowSet
// it creates draws its arrays from it, and every intermediate result
// goes back once its consumer has returned.
type evaluator struct {
	g       rdf.Store
	sc      *VarSchema
	b       *Budget
	po      *pool // nil: serial
	minPart int
	free    freeList
}

func newEvaluator(g rdf.Store, sc *VarSchema, b *Budget, o ParOptions) *evaluator {
	return &evaluator{
		g:       g,
		sc:      sc,
		b:       b,
		po:      newPool(o.workers() - 1),
		minPart: o.minPartition(),
	}
}

// eval attaches a profile node for p under parent (nil disables
// instrumentation) and evaluates.
func (e *evaluator) eval(p Pattern, parent *obs.Node) (*RowSet, error) {
	return e.evalCap(p, 0, parent)
}

// evalCap is eval keeping at most k rows of the answer (all of them
// for k ≤ 0).
func (e *evaluator) evalCap(p Pattern, k int, parent *obs.Node) (*RowSet, error) {
	return e.evalInto(p, k, childNode(parent, p))
}

// evalInto evaluates p into an already-created profile node — evalBoth
// creates both operand nodes before fanning out so the profile tree's
// child order is deterministic (L, R) regardless of scheduling.
func (e *evaluator) evalInto(p Pattern, k int, node *obs.Node) (*RowSet, error) {
	return evalInstrumented(node, e.b, func() (*RowSet, error) {
		rs, err := e.evalOp(p, k, node)
		if err != nil || k <= 0 || rs.Len() <= k {
			return rs, err
		}
		return rs.Window(0, k), nil
	})
}

// evalOp dispatches one operator, recursing through eval so the
// children attach under node.  Rows-in is the operand total fed to the
// operator (its own output is recorded by the wrapper).
//
// A cap k > 0 asks for any k rows of the answer.  Two operators can
// stop early on it: UNION leaves its right side unevaluated once the
// left one fills the cap, and SELECT hands a cap of one to its body,
// since any answer projects to an answer.  Every other operator needs
// its operands in full — a join or an NS over a prefix of an operand
// is not a prefix of the answer — and the cap only cuts its output.
func (e *evaluator) evalOp(p Pattern, k int, node *obs.Node) (*RowSet, error) {
	if err := e.b.Step(); err != nil {
		return nil, err
	}
	switch q := p.(type) {
	case TriplePattern:
		ts, ok := resolveTriple(q, e.sc, e.g.Dict())
		if !ok {
			return newRowSet(e.sc, &e.free, 0), nil
		}
		return e.scan(&ts, node)
	case And:
		out, _, err := e.join(q.L, q.R, false, node)
		return out, err
	case Union:
		var l, r *RowSet
		var err error
		if k > 0 {
			// Capped: the right side runs only when the left one leaves
			// the cap unfilled, and both run on this goroutine.
			if l, err = e.evalCap(q.L, k, node); err != nil || l.Len() >= k {
				return l, err
			}
			r, err = e.evalCap(q.R, k, node)
		} else {
			l, r, err = e.evalBoth(q.L, q.R, node)
		}
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		out, err := l.UnionB(r, e.b)
		return finish(node, out, err, l, r)
	case Opt:
		out, _, err := e.join(q.L, q.R, true, node)
		return out, err
	case Filter:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.FilterB(CompileCond(q.Cond, e.sc, e.g.Dict()), e.b)
		return finish(node, out, err, inner)
	case Select:
		if k != 1 {
			k = 0
		}
		inner, err := e.evalCap(q.P, k, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.ProjectB(e.sc.SlotMask(q.Vars), e.b)
		return finish(node, out, err, inner)
	case NS:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.maximalParB(e.b, e.po, e.minPart, node)
		if err == nil {
			recordNS(node, inner, out)
		}
		return finish(node, out, err, inner)
	default:
		return nil, ErrUnsupportedPattern{Pattern: p}
	}
}

// join evaluates l ⋈ r, or l ⟕ r with outer set, under node — the
// operator of an And or Opt node, and the first pair of a chain — and
// names the strategy it ran.  When r is a triple pattern the join rule
// (BindPays) decides between probing the index once per left row and
// scanning r: on l's exact index count when l is a triple too, on the
// rows l produced otherwise.  A scan of two triple patterns sharing
// their sort variable merges; everything else evaluates both operands
// (concurrently when a worker is free) and hash-joins.  Profile
// children are created left before right; a bind join's right child is
// its "bindjoin" node, which scans nothing.
func (e *evaluator) join(lp, rp Pattern, outer bool, node *obs.Node) (*RowSet, string, error) {
	rt, ok := rp.(TriplePattern)
	if !ok {
		return e.hashJoin(lp, rp, outer, node)
	}
	nr := e.count(rt)
	if lt, ok := lp.(TriplePattern); ok && !e.binds(e.count(lt), nr) {
		if rs, handled, err := e.tryMergeScanJoin(lp, rp, node, outer); handled {
			return rs, "merge", err
		}
		return e.hashJoin(lp, rp, outer, node)
	}
	l, err := e.eval(lp, node)
	if err != nil {
		return nil, "", err
	}
	node.AddRowsIn(int64(l.Len()))
	if e.binds(float64(l.Len()), nr) {
		out, err := bindJoinScanPar(e.g, l, rt, outer, e.b, e.po, e.minPart, node.Child("bindjoin", rt.String()))
		out, err = finish(node, out, err, l)
		return out, "bind", err
	}
	r, err := e.eval(rp, node)
	if err != nil {
		return nil, "", err
	}
	node.AddRowsIn(int64(r.Len()))
	return e.joinRows(l, r, outer, node)
}

// binds applies the join rule to a left side of nl rows and a right
// triple of nr.
func (e *evaluator) binds(nl, nr float64) bool {
	return bindAlways || BindPays(nl, nr)
}

// bindAlways, when a test has set it (export_test.go), makes join
// bind-join every triple right operand whatever the sizes: how the
// differential and fault suites drive the bind paths through every
// shape of left side on small random graphs.  Always false outside
// tests.
var bindAlways bool

// hashJoin evaluates both operands, concurrently when a worker is
// free, and hash-joins them.
func (e *evaluator) hashJoin(lp, rp Pattern, outer bool, node *obs.Node) (*RowSet, string, error) {
	l, r, err := e.evalBoth(lp, rp, node)
	if err != nil {
		return nil, "", err
	}
	node.AddRowsIn(int64(l.Len() + r.Len()))
	return e.joinRows(l, r, outer, node)
}

// joinRows is the hash join or left join of two evaluated operands.
func (e *evaluator) joinRows(l, r *RowSet, outer bool, node *obs.Node) (*RowSet, string, error) {
	var out *RowSet
	var err error
	if outer {
		out, err = l.leftJoinParB(r, e.b, e.po, e.minPart, node)
	} else {
		out, err = l.joinParB(r, e.b, e.po, e.minPart, node)
	}
	out, err = finish(node, out, err, l, r)
	return out, "hash", err
}

// count is |⟦t⟧_G| from the index, ignoring repeated variables (which
// only lower it); 0 when a constant of t is not in the dictionary.
func (e *evaluator) count(t TriplePattern) float64 {
	ts, ok := resolveTriple(t, e.sc, e.g.Dict())
	if !ok {
		return 0
	}
	sp, pp, op := ts.constants()
	return float64(e.g.CountMatchIDs(sp, pp, op))
}

// finish ends one operator: the rows its membership table rejected go
// on the profile node, and the operands' arrays go back to the free
// list.  An operator may have returned one of its operands as it is
// (single-domain NS, Ω ∖ ∅, a SELECT that drops nothing, ⋈ with an
// empty side): that set built nothing here and stays alive.
func finish(node *obs.Node, out *RowSet, err error, operands ...*RowSet) (*RowSet, error) {
	if err != nil {
		return nil, err
	}
	built := true
	for _, in := range operands {
		if in == out {
			built = false
		} else {
			in.Release()
		}
	}
	if built {
		node.AddDedupHits(out.DedupHits())
	}
	return out, nil
}

// evalBoth evaluates two sub-patterns, on two goroutines when a worker
// is free.  It always joins the spawned branch before returning —
// including on error — so an unwinding evaluation never leaves a
// worker running behind the caller's back.  The pool counters land on
// node (the binary operator that wanted the fan-out).
func (e *evaluator) evalBoth(pl, pr Pattern, node *obs.Node) (*RowSet, *RowSet, error) {
	nl := childNode(node, pl)
	nr := childNode(node, pr)
	if e.po.tryAcquire() {
		node.AddPoolAcquired(1)
		var (
			r    *RowSet
			rerr error
			done = make(chan struct{})
		)
		go func() {
			defer close(done)
			defer e.po.release()
			r, rerr = e.evalInto(pr, 0, nr)
		}()
		l, lerr := e.evalInto(pl, 0, nl)
		<-done
		if lerr != nil {
			return nil, nil, lerr
		}
		if rerr != nil {
			return nil, nil, rerr
		}
		return l, r, nil
	}
	if e.po != nil {
		node.AddPoolInline(1)
	}
	l, err := e.evalInto(pl, 0, nl)
	if err != nil {
		return nil, nil, err
	}
	r, err := e.evalInto(pr, 0, nr)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// parChunks splits [0, n) into contiguous chunks of at least minChunk
// elements, runs work on each — one chunk inline, the rest on pool
// workers — and returns the per-chunk results in chunk order; with a
// nil pool that is one chunk, inline.  Every spawned worker is joined
// before parChunks returns (clean drain); the first error in chunk
// order wins, and with a shared sticky budget all chunks report the
// same governor error anyway.  Pool counters land on node: tokens
// acquired, plus one inline fallback when the operator wanted more
// workers than the pool had free.
func parChunks[T any](po *pool, n, minChunk int, node *obs.Node, work func(lo, hi int) (T, error)) ([]T, error) {
	workers := 1
	if po != nil {
		maxWorkers := n / max(minChunk, 1)
		for workers < maxWorkers && po.tryAcquire() {
			workers++
		}
		node.AddPoolAcquired(int64(workers - 1))
		if workers < maxWorkers {
			node.AddPoolInline(1)
		}
	}
	if workers == 1 {
		out, err := work(0, n)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	outs := make([]T, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer po.release()
			outs[w], errs[w] = work(lo, hi)
		}(w, lo, hi)
	}
	outs[0], errs[0] = work(0, n/workers)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// mergeParts folds the per-partition outputs of one operator into one
// set, in partition order.  Partitions cover disjoint input rows, so
// whenever the serial operator appends (distinct) they cannot share a
// row and are concatenated; otherwise the later partitions go through
// the first one's membership table.  Each partition's own rejections
// fold into the merged set's counter so the operator's profile sees
// every rejected duplicate, wherever it happened.  With a pool, the
// partition count lands on node.
func mergeParts(parts []*RowSet, distinct bool, po *pool, bud *Budget, node *obs.Node) (*RowSet, error) {
	if po != nil {
		node.AddPartitions(int64(len(parts)))
	}
	out := parts[0]
	if len(parts) == 1 {
		return out, nil
	}
	l := bud.lease()
	defer l.release()
	for _, p := range parts[1:] {
		out.dedup += p.dedup
		if distinct {
			out.appendAll(p) // charged when the worker appended them
		} else {
			for i := 0; i < p.Len(); i++ {
				if err := l.step(); err != nil {
					return nil, err
				}
				copy(out.next(), p.RowIDs(i))
				if err := out.emit(p.masks[i], false, bud); err != nil {
					return nil, err
				}
			}
		}
		p.Release()
	}
	return out, nil
}

// chunkOf derives the minimum chunk size from the partition threshold:
// fine enough to occupy the pool, coarse enough that per-chunk setup
// (a RowSet, a step lease) stays amortized.
func chunkOf(minPart int) int {
	return max(minPart/4, 1)
}

// MaximalPar is Maximal on the parallel engine (0 = GOMAXPROCS).
func (s *RowSet) MaximalPar(workers int) *RowSet {
	out, _ := s.MaximalParB(nil, workers)
	return out
}

// MaximalParB is MaximalB sharded by mask bucket across up to workers
// goroutines; see maximalParB.
func (s *RowSet) MaximalParB(bud *Budget, workers int) (*RowSet, error) {
	o := ParOptions{Workers: workers}
	return s.maximalParB(bud, newPool(o.workers()-1), DefaultMinPartition, nil)
}
