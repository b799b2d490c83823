package sparql_test

// The governor's contract with step leases (budget.go), held on whole
// evaluations: the hot loops buy their steps 64 at a time, and every
// observable of the Budget — where a limit or a fault fires, when a
// cancellation is noticed, what Steps and Counters read afterwards —
// is what it would be with one atomic add per step.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// leaseQueries is a pinned set over the university graph that reaches
// every leased loop: scan, merge join and merge left join, hash join,
// hash OPT, ∖ inside OPT, bind join and bind left join, UNION
// (concatenated and looked up), NS over two domains, FILTER, SELECT,
// and a four-pattern chain for the chain drivers (bind join included).
func leaseQueries() []sparql.Pattern {
	v, i := sparql.V, sparql.I
	name := sparql.TP(v("p"), i("name"), v("n"))
	works := sparql.TP(v("p"), i("works_at"), v("u"))
	email := sparql.TP(v("p"), i("email"), v("e"))
	phone := sparql.TP(v("p"), i("phone"), v("f"))
	mission := sparql.TP(v("u"), i("stands_for"), v("m"))
	born := sparql.TP(v("p"), i("was_born_in"), v("c"))
	return []sparql.Pattern{
		name,
		sparql.And{L: name, R: email},
		sparql.Opt{L: name, R: email},
		sparql.And{L: works, R: mission},
		sparql.Opt{L: sparql.And{L: name, R: works}, R: sparql.And{L: email, R: phone}},
		sparql.Opt{L: sparql.Opt{L: name, R: email}, R: phone},
		sparql.Union{L: name, R: sparql.And{L: name, R: email}},
		sparql.Union{L: sparql.Opt{L: name, R: email}, R: sparql.Opt{L: name, R: phone}},
		sparql.NS{P: sparql.Union{L: sparql.And{L: name, R: works}, R: sparql.And{L: sparql.And{L: name, R: works}, R: email}}},
		sparql.Filter{P: sparql.Opt{L: name, R: email}, Cond: sparql.Not{R: sparql.Bound{X: "e"}}},
		sparql.NewSelect([]sparql.Var{"u", "c"}, sparql.And{L: works, R: born}),
		// Both scans lead with ?u and neither is small: merge.
		sparql.And{L: works, R: sparql.TP(v("u"), v("r"), v("s"))},
		sparql.Opt{L: works, R: sparql.TP(v("u"), v("r"), v("s"))},
		// A bind left join fanning out to every colleague.
		sparql.Opt{L: sparql.And{L: sparql.TP(v("p"), i("was_born_in"), i("country_3")), R: works}, R: sparql.TP(v("q"), i("works_at"), v("u"))},
		// Colleagues of the people born in one country: two bind joins
		// (the second fans out to every colleague), then a hash join.
		sparql.And{L: sparql.And{L: sparql.And{L: sparql.TP(v("p"), i("was_born_in"), i("country_3")), R: works},
			R: sparql.TP(v("q"), i("works_at"), v("u"))}, R: sparql.TP(v("q"), i("name"), v("o"))},
	}
}

// leasePaths are the evaluators the lease tests run on; all but the
// last are serial, where every count is exact.
var leasePaths = []struct {
	name   string
	serial bool
	eval   func(g *rdf.Graph, p sparql.Pattern, b *sparql.Budget) (int, error)
}{
	{"serial tree", true, func(g *rdf.Graph, p sparql.Pattern, b *sparql.Budget) (int, error) {
		rs, _, err := sparql.EvalRows(g, p, b, serialOpts)
		if err != nil {
			return 0, err
		}
		return rs.Len(), nil
	}},
	{"planned, one worker", true, func(g *rdf.Graph, p sparql.Pattern, b *sparql.Budget) (int, error) {
		rows, err := plan.Run(g, plan.Prepare(g, p), b, plan.Options{Parallel: 1})
		return rows.Len(), err
	}},
	{"planned, four workers", false, func(g *rdf.Graph, p sparql.Pattern, b *sparql.Budget) (int, error) {
		rows, err := plan.Run(g, plan.Prepare(g, p), b, plan.Options{Parallel: 4, MinParallelEstimate: -1, MinPartition: 64})
		return rows.Len(), err
	}},
}

// TestLeasesAreReturned: after a finished evaluation Steps and Counters
// are the steps the evaluation took, nothing stranded in a lease — the
// totals under the default stride (leases of 64) equal the totals with
// stride 1, where every step is its own checkpoint and no lease is
// ever granted.  The parallel path takes the same steps on these
// queries (single-domain joins: partitions are concatenated), so its
// totals agree too.
func TestLeasesAreReturned(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 600, OptionalPct: 50, FoundersPct: 10, Seed: 11})
	for qi, p := range leaseQueries() {
		for _, path := range leasePaths {
			exact := sparql.NewBudget(context.Background()).WithStride(1).WithMaxBytes(1 << 40)
			wantRows, err := path.eval(g, p, exact)
			if err != nil {
				t.Fatalf("query %d, %s: %v", qi, path.name, err)
			}
			leased := sparql.NewBudget(context.Background()).WithMaxBytes(1 << 40)
			rows, err := path.eval(g, p, leased)
			if err != nil || rows != wantRows {
				t.Fatalf("query %d, %s: %d rows, %v; want %d", qi, path.name, rows, err, wantRows)
			}
			es, er, eb := exact.Counters()
			ls, lr, lb := leased.Counters()
			if ls != es || lr != er || lb != eb || leased.Steps() != es {
				t.Errorf("query %d, %s: counters %d/%d/%d with leases, %d/%d/%d without\n%s",
					qi, path.name, ls, lr, lb, es, er, eb, p)
			}
			if es < 600 {
				t.Errorf("query %d, %s: only %d steps — the loops are not charging", qi, path.name, es)
			}
		}
	}
}

// TestLeasedLimitsFireExactly: on the serial paths, a step limit m
// stops the evaluation with the counter at exactly m+1 and an injected
// fault at n with the counter at exactly n, at every point of a sweep
// over the whole evaluation and under the default stride; on the
// parallel path the right error surfaces (the counter then reads
// whatever the unwinding workers' returned leases leave).
func TestLeasedLimitsFireExactly(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 150, OptionalPct: 50, FoundersPct: 10, Seed: 12})
	for qi, p := range leaseQueries() {
		for _, path := range leasePaths {
			probe := sparql.NewBudget(context.Background())
			wantRows, err := path.eval(g, p, probe)
			if err != nil {
				t.Fatalf("query %d, %s: %v", qi, path.name, err)
			}
			total := probe.Steps()
			for _, n := range injectionPoints(total, 48) {
				b := sparql.NewBudget(context.Background())
				b.InjectFault(n, errInjected)
				if _, err := path.eval(g, p, b); !errors.Is(err, errInjected) {
					t.Fatalf("query %d, %s, fault@%d/%d: err = %v", qi, path.name, n, total, err)
				}
				if got, want := b.Steps(), max(n, 1); got != want && path.serial {
					t.Fatalf("query %d, %s, fault@%d/%d: fired with the counter at %d", qi, path.name, n, total, got)
				}
				if n == 0 || n == total {
					continue
				}
				b = sparql.NewBudget(context.Background()).WithMaxSteps(n)
				_, err := path.eval(g, p, b)
				var be sparql.ErrBudgetExceeded
				if !errors.As(err, &be) || be.Kind != sparql.BudgetSteps {
					t.Fatalf("query %d, %s, max-steps %d/%d: err = %v", qi, path.name, n, total, err)
				}
				if got := b.Steps(); got != n+1 && path.serial {
					t.Fatalf("query %d, %s, max-steps %d/%d: stopped with the counter at %d", qi, path.name, n, total, got)
				}
			}
			// One step more than the evaluation takes is enough.
			b := sparql.NewBudget(context.Background()).WithMaxSteps(total)
			if rows, err := path.eval(g, p, b); path.serial && (err != nil || rows != wantRows) {
				t.Fatalf("query %d, %s, max-steps = total %d: %d rows, %v", qi, path.name, total, rows, err)
			}
		}
	}
}

// flipContext is live for its first `live` Err calls and canceled from
// then on: a cancellation that arrives between two known polls.
type flipContext struct {
	context.Context
	live  int64
	calls atomic.Int64
}

func (c *flipContext) Err() error {
	if c.calls.Add(1) > c.live {
		return context.Canceled
	}
	return nil
}
func (c *flipContext) Done() <-chan struct{}       { return nil }
func (c *flipContext) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestLeasedCancellationWithinOneStride: NewBudget polls the context
// once and every checkpoint once more, so a context that dies after
// its k-th poll is noticed at the (k+1)-th — on a serial path at
// exactly k strides of work, leases or not.
func TestLeasedCancellationWithinOneStride(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 1200, OptionalPct: 50, FoundersPct: 10, Seed: 13})
	const stride = 256
	for qi, p := range leaseQueries()[1:] {
		for _, path := range leasePaths {
			for _, k := range []int64{1, 3} {
				ctx := &flipContext{Context: context.Background(), live: k}
				b := sparql.NewBudget(ctx).WithStride(stride)
				_, err := path.eval(g, p, b)
				if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("query %d, %s: err = %v (%d steps)", qi, path.name, err, b.Steps())
				}
				if got := b.Steps(); got != k*stride && path.serial {
					t.Fatalf("query %d, %s: canceled after poll %d, noticed with the counter at %d, want %d",
						qi, path.name, k, got, k*stride)
				}
			}
		}
	}
}
