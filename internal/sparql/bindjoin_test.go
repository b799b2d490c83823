package sparql_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// bindJoinCase draws one random accumulator/probe pair: the
// accumulator is the evaluation of a random sub-pattern (unions and
// optionals included, so rows carry heterogeneous presence masks) and
// the probe is a random triple pattern sharing its schema.
func bindJoinCase(rng *rand.Rand) (g *rdf.Graph, accPat sparql.Pattern, t sparql.TriplePattern, joined sparql.Pattern) {
	g = workload.RandomGraph(rng, 4+rng.Intn(22), nil)
	accPat = workload.RandomPattern(rng, workload.PatternOpts{
		Depth: 2,
		Ops:   []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt},
	})
	t = workload.RandomTriplePattern(rng, &workload.PatternOpts{})
	return g, accPat, t, sparql.And{L: accPat, R: t}
}

// TestBindJoinScanMatchesHashJoin is the bind join's differential
// property: for random accumulators (heterogeneous masks included) and
// random probe triples, BindJoinScan(acc, t) decodes to exactly the
// reference answers of acc AND t — the same set the hash join
// produces.
func TestBindJoinScanMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3030))
	for trial := 0; trial < 300; trial++ {
		g, accPat, probe, joined := bindJoinCase(rng)
		sc, ok := sparql.SchemaFor(joined)
		if !ok {
			continue
		}
		acc, err := sparql.EvalPatternRows(g, accPat, sc)
		if err != nil {
			t.Fatalf("trial %d: accumulator eval failed: %v", trial, err)
		}
		want := sparql.Eval(g, joined)
		got, err := sparql.BindJoinScan(g, acc, probe, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: BindJoinScan failed: %v", trial, err)
		}
		if gs := got.MappingSet(g.Dict()); !gs.Equal(want) {
			t.Fatalf("trial %d: bind join diverges on acc=%s probe=%s\ngot: %v\nwant:%v",
				trial, accPat, probe, gs, want)
		}
	}
}

// TestBindJoinFaultInjection sweeps an injected fault across every
// reachable step of a bind join: the join must either complete with
// the exact reference answer (fault not reached) or surface exactly
// the injected sentinel with a nil result.
func TestBindJoinFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(5050))
	for trial := 0; trial < 8; trial++ {
		g, accPat, probe, joined := bindJoinCase(rng)
		sc, ok := sparql.SchemaFor(joined)
		if !ok {
			continue
		}
		acc, err := sparql.EvalPatternRows(g, accPat, sc)
		if err != nil {
			t.Fatalf("trial %d: accumulator eval failed: %v", trial, err)
		}
		want := sparql.Eval(g, joined)

		// Probe run bounds the sweep.
		pb := sparql.NewBudget(context.Background()).WithStride(1)
		if _, err := sparql.BindJoinScan(g, acc, probe, pb, nil); err != nil {
			t.Fatalf("trial %d: probe run failed: %v", trial, err)
		}
		total := pb.Steps()

		faulted := false
		for _, at := range injectionPoints(total, 16) {
			b := sparql.NewBudget(context.Background()).WithStride(1)
			b.InjectFault(at, errInjected)
			rs, err := sparql.BindJoinScan(g, acc, probe, b, nil)
			if err != nil {
				faulted = true
				if !errors.Is(err, errInjected) {
					t.Fatalf("trial %d fault@%d: err = %v, want injected sentinel", trial, at, err)
				}
				if rs != nil {
					t.Fatalf("trial %d fault@%d: non-nil result alongside error", trial, at)
				}
				// The sticky budget error is the same sentinel, recorded
				// once: a second Step observes it without re-wrapping.
				if !errors.Is(b.Err(), errInjected) {
					t.Fatalf("trial %d fault@%d: sticky error is %v", trial, at, b.Err())
				}
				continue
			}
			if d := sameRowMultiset(rs, g.Dict(), want); d != nil {
				t.Fatalf("trial %d fault@%d: unfaulted run diverges: %s", trial, at, d)
			}
		}
		if !faulted && total > 0 {
			t.Fatalf("trial %d: sweep never hit the fault", trial)
		}
	}
}

// TestBindJoinBudgetCancelMidJoin cancels the context while a large
// bind join is in flight: the join must come back promptly with the
// typed cancellation error and surface it exactly once.
func TestBindJoinBudgetCancelMidJoin(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 4000, OptionalPct: 50, FoundersPct: 10, Seed: 7})
	accPat := sparql.TP(sparql.V("A"), sparql.I("name"), sparql.V("N"))
	probe := sparql.TP(sparql.V("A"), sparql.I("works_at"), sparql.V("U"))
	sc, ok := sparql.SchemaFor(sparql.And{L: accPat, R: probe})
	if !ok {
		t.Fatal("schema rejected")
	}
	acc, err := sparql.EvalPatternRows(g, accPat, sc)
	if err != nil {
		t.Fatalf("accumulator eval failed: %v", err)
	}
	if acc.Len() < 1000 {
		t.Fatalf("fixture too small: %d accumulator rows", acc.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := sparql.NewBudget(ctx).WithStride(1)
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	var rs *sparql.RowSet
	for {
		// Loop until the cancellation actually lands mid-join (on a
		// fast machine the first run may complete before the timer).
		rs, err = sparql.BindJoinScan(g, acc, probe, b, nil)
		if err != nil || time.Since(start) > 5*time.Second {
			break
		}
	}
	if err == nil {
		t.Skip("join kept completing before cancellation landed")
	}
	if !errors.Is(err, sparql.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if rs != nil {
		t.Fatal("non-nil result alongside cancellation")
	}
	if !errors.Is(b.Err(), sparql.ErrCanceled) {
		t.Fatalf("sticky error is %v, want ErrCanceled", b.Err())
	}
}
