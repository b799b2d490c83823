package sparql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sparql"
	"repro/internal/workload"
)

// The row engine evaluates a query on the calling goroutine, and the
// servers evaluate many queries at once over one store.  The first
// tests here run evaluations in parallel over one graph — under -race
// they check that queries share nothing writable — and hold every
// answer to the reference evaluator as a multiset.  The Budget tests
// hammer one budget from many goroutines: its counters are atomic.

// parallelRuns is how many evaluations the tests run at once.
const parallelRuns = 4

// inParallel runs f(0), …, f(n-1) on n goroutines and waits for all of
// them.
func inParallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// TestEvalRowsParAgreesWithSerialQuick: on random patterns × random
// graphs, per fragment, evaluations of one query running in parallel
// over one graph each return what the engine returns alone — the
// reference answer, every row once.
func TestEvalRowsParAgreesWithSerialQuick(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			for trial := 0; trial < 150; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				p := fragmentPattern(rng, fc.ops, fc.ns)
				want := sparql.Eval(g, p)
				diffs := make([]error, parallelRuns)
				inParallel(parallelRuns, func(i int) {
					rs, ok, err := sparql.EvalRows(g, p, nil, sparql.EvalOptions{})
					if err != nil || !ok {
						diffs[i] = fmt.Errorf("ok=%t err=%v", ok, err)
						return
					}
					diffs[i] = sameRowMultiset(rs, g.Dict(), want)
				})
				for i, d := range diffs {
					if d != nil {
						t.Fatalf("trial %d, run %d: diverges on\n%s\n%s", trial, i, p, d)
					}
				}
			}
		})
	}
}

// TestBudgetConcurrentExact hammers one Budget from many goroutines
// and checks that no charge is lost: the atomic counters must add up
// exactly.
func TestBudgetConcurrentExact(t *testing.T) {
	const workers, per = 8, 20000
	b := sparql.NewBudget(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Step(); err != nil {
					t.Errorf("unlimited budget failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := b.Steps(); got != workers*per {
		t.Fatalf("lost steps under concurrency: got %d want %d", got, workers*per)
	}
}

// TestBudgetConcurrentSticky trips a step limit from many goroutines
// at once: every worker must observe the same typed error, and the
// overshoot past the limit is bounded by the worker count (each may be
// one Step past the limit when the first failure publishes).
func TestBudgetConcurrentSticky(t *testing.T) {
	const workers, limit = 8, 5000
	b := sparql.NewBudget(context.Background()).WithMaxSteps(limit).WithStride(1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if err := b.Step(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first error
	for w, err := range errs {
		var be sparql.ErrBudgetExceeded
		if !errors.As(err, &be) || be.Kind != sparql.BudgetSteps {
			t.Fatalf("worker %d: got %v, want ErrBudgetExceeded{steps}", w, err)
		}
		if first == nil {
			first = err
		} else if !errors.Is(err, first) {
			t.Fatalf("sticky error not single-valued: %v vs %v", err, first)
		}
	}
	if got := b.Steps(); got > limit+workers+1 {
		t.Fatalf("overshoot too large: %d steps for limit %d", got, limit)
	}
}

// TestBudgetConcurrentFaultOnce injects a fault and lets many workers
// cross the trigger together: all of them must surface the injected
// sentinel (first publisher wins, everyone reads it back).
func TestBudgetConcurrentFaultOnce(t *testing.T) {
	sentinel := errors.New("injected")
	const workers = 8
	b := sparql.NewBudget(context.Background()).WithStride(1)
	b.InjectFault(100, sentinel)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := b.Step(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("worker %d: got %v, want the injected sentinel", w, err)
		}
	}
	if !errors.Is(b.Err(), sentinel) {
		t.Fatalf("sticky error is %v, want the injected sentinel", b.Err())
	}
}

// TestParallelFaultInjectionSweep moves a fault across every step of
// one evaluation while other evaluations of the same query run in
// parallel on the same graph, per fragment: whatever the injection
// point, the faulted run returns either the exact reference answer
// (fault never reached) or the injected sentinel and no rows, and the
// runs beside it return the exact answer — a fault stays in its own
// query.
func TestParallelFaultInjectionSweep(t *testing.T) {
	sentinel := errors.New("injected fault")
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(808))
			g := workload.RandomGraph(rng, 25, nil)
			p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
			if fc.ns == "wrap" || fc.ns == "union" {
				p = sparql.NS{P: p}
			}
			want := sparql.Eval(g, p)

			probe := sparql.NewBudget(context.Background()).WithStride(1)
			if _, _, err := sparql.EvalRows(g, p, probe, sparql.EvalOptions{}); err != nil {
				t.Fatalf("probe run failed: %v", err)
			}
			total := probe.Steps()
			faulted := false
			for _, at := range injectionPoints(total, 40) {
				diffs := make([]error, parallelRuns)
				inParallel(parallelRuns, func(i int) {
					b := sparql.NewBudget(context.Background()).WithStride(1)
					if i == 0 {
						b.InjectFault(at, sentinel)
					}
					rs, _, err := sparql.EvalRows(g, p, b, sparql.EvalOptions{})
					switch {
					case i == 0 && errors.Is(err, sentinel) && rs == nil:
						faulted = true
					case err != nil:
						diffs[i] = fmt.Errorf("err = %v, rows %v", err, rs != nil)
					default:
						diffs[i] = sameRowMultiset(rs, g.Dict(), want)
					}
				})
				for i, d := range diffs {
					if d != nil {
						t.Fatalf("faultAt=%d, run %d: %s", at, i, d)
					}
				}
			}
			if !faulted && total > 0 {
				t.Fatal("sweep never hit the fault — injection points not exercised")
			}
		})
	}
}

// TestParallelDeadlineDrains points several evaluations at once at a
// join far too large to finish, each with a deadline far too small:
// every one must come back promptly with the typed cancellation error.
func TestParallelDeadlineDrains(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 3000, OptionalPct: 50, FoundersPct: 10, Seed: 2})
	// Two independent join components: the planner-free engine
	// evaluates them as one cartesian product, ~3000² rows.
	p := sparql.And{
		L: sparql.And{
			L: sparql.TP(sparql.V("A"), sparql.I("name"), sparql.V("N")),
			R: sparql.TP(sparql.V("A"), sparql.I("works_at"), sparql.V("U")),
		},
		R: sparql.And{
			L: sparql.TP(sparql.V("B"), sparql.I("name"), sparql.V("M")),
			R: sparql.TP(sparql.V("B"), sparql.I("works_at"), sparql.V("V")),
		},
	}
	errs := make([]error, parallelRuns)
	took := make([]time.Duration, parallelRuns)
	inParallel(parallelRuns, func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		b := sparql.NewBudget(ctx).WithMaxBytes(1 << 30)
		start := time.Now()
		_, _, errs[i] = sparql.EvalRows(g, p, b, sparql.EvalOptions{})
		took[i] = time.Since(start)
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("run %d: a 9M-row join finished under a 30ms deadline?", i)
		}
		if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: got %v, want ErrCanceled wrapping DeadlineExceeded", i, err)
		}
		if took[i] > 10*time.Second {
			t.Fatalf("run %d: cancellation took %v", i, took[i])
		}
	}
}

// TestBudgetMemoryLimitStopsJoin checks that the memory estimate
// governs the whole evaluation: the operands and the join output all
// charge the one budget, so a join whose rows outgrow it stops with
// the memory error.
func TestBudgetMemoryLimitStopsJoin(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 500, OptionalPct: 50, FoundersPct: 10, Seed: 3})
	p := sparql.And{
		L: sparql.TP(sparql.V("P"), sparql.I("name"), sparql.V("N")),
		R: sparql.TP(sparql.V("P"), sparql.I("works_at"), sparql.V("U")),
	}
	b := sparql.NewBudget(context.Background()).WithMaxBytes(4096)
	_, ok, err := sparql.EvalRows(g, p, b, sparql.EvalOptions{})
	if !ok {
		t.Fatal("schema rejected")
	}
	var be sparql.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != sparql.BudgetMemory {
		t.Fatalf("got %v, want ErrBudgetExceeded{memory}", err)
	}
}
