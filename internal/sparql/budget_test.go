package sparql

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestBudgetNilIsUnlimited: a nil *Budget is the ungoverned mode; every
// method must be a no-op returning nil.
func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 10_000; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("nil budget Step: %v", err)
		}
	}
	if err := b.StepN(1 << 20); err != nil {
		t.Fatalf("nil budget StepN: %v", err)
	}
	if err := b.AddRows(1 << 20); err != nil {
		t.Fatalf("nil budget AddRows: %v", err)
	}
	if err := b.chargeRow(64); err != nil {
		t.Fatalf("nil budget chargeRow: %v", err)
	}
	if b.Steps() != 0 || b.Err() != nil {
		t.Fatalf("nil budget state: steps=%d err=%v", b.Steps(), b.Err())
	}
}

// TestBudgetMaxStepsExact: the step limit must fire on exactly the
// (maxSteps+1)-th step, regardless of the stride, and stay sticky.
func TestBudgetMaxStepsExact(t *testing.T) {
	b := NewBudget(nil).WithMaxSteps(100)
	for i := 0; i < 100; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("step %d within limit failed: %v", i+1, err)
		}
	}
	err := b.Step()
	var be ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != BudgetSteps {
		t.Fatalf("step 101: got %v, want ErrBudgetExceeded{BudgetSteps}", err)
	}
	// Sticky: every later call returns the same failure.
	if err2 := b.Step(); !errors.Is(err2, err) && err2.Error() != err.Error() {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
	if b.Err() == nil {
		t.Fatal("Err() nil after exhaustion")
	}
}

// TestBudgetStepNBulk: bulk charging trips the same limit.
func TestBudgetStepNBulk(t *testing.T) {
	b := NewBudget(nil).WithMaxSteps(1000)
	if err := b.StepN(1000); err != nil {
		t.Fatalf("StepN within limit: %v", err)
	}
	var be ErrBudgetExceeded
	if err := b.StepN(1); !errors.As(err, &be) || be.Kind != BudgetSteps {
		t.Fatalf("StepN over limit: %v", err)
	}
}

// TestBudgetCancellationLatency: a canceled context must be noticed
// within one stride of steps — not immediately (that would be the slow
// path on every step) but boundedly soon.
func TestBudgetCancellationLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx).WithStride(8)
	cancel()
	var err error
	n := 0
	for err == nil && n < 100 {
		err = b.Step()
		n++
	}
	if err == nil {
		t.Fatal("canceled context never noticed")
	}
	if n > 8 {
		t.Fatalf("cancellation noticed after %d steps, stride is 8", n)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrap", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, cause context.Canceled not wrapped", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v wrongly matches DeadlineExceeded", err)
	}
}

// TestBudgetDeadlineCause: an expired deadline must surface both
// ErrCanceled and context.DeadlineExceeded, so servers can map it to a
// timeout status distinct from a client hang-up.
func TestBudgetDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	b := NewBudget(ctx).WithStride(1)
	err := b.Step()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled and context.DeadlineExceeded", err)
	}
}

// TestBudgetMaxRows: the row limit is charged independently of steps.
func TestBudgetMaxRows(t *testing.T) {
	b := NewBudget(nil).WithMaxRows(5)
	if err := b.AddRows(5); err != nil {
		t.Fatalf("AddRows within limit: %v", err)
	}
	var be ErrBudgetExceeded
	if err := b.AddRows(1); !errors.As(err, &be) || be.Kind != BudgetRows {
		t.Fatalf("AddRows over limit: %v", err)
	}
	// Sticky across other methods too.
	if err := b.Step(); err == nil {
		t.Fatal("Step nil after row exhaustion")
	}
}

// TestBudgetMaxBytes: the memory estimate (8 bytes per slot + mask
// word per row) trips BudgetMemory.
func TestBudgetMaxBytes(t *testing.T) {
	b := NewBudget(nil).WithMaxBytes(100)
	// width 4 → 40 bytes/row: two rows fit, the third does not.
	if err := b.chargeRow(4); err != nil {
		t.Fatalf("row 1: %v", err)
	}
	if err := b.chargeRow(4); err != nil {
		t.Fatalf("row 2: %v", err)
	}
	var be ErrBudgetExceeded
	if err := b.chargeRow(4); !errors.As(err, &be) || be.Kind != BudgetMemory {
		t.Fatalf("row 3: %v", err)
	}
}

// TestBudgetInjectFaultExact: the fault hook must fire on the exact
// step that reaches the armed count, even far from a stride boundary.
func TestBudgetInjectFaultExact(t *testing.T) {
	sentinel := errors.New("injected")
	for _, at := range []int64{0, 1, 2, 500, 1023, 1024, 1025, 5000} {
		b := NewBudget(nil)
		b.InjectFault(at, sentinel)
		var err error
		for err == nil {
			err = b.Step()
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("faultAt=%d: err = %v", at, err)
		}
		want := at
		if want == 0 {
			want = 1 // the first step is the earliest observable point
		}
		if b.Steps() != want {
			t.Fatalf("faultAt=%d: fired at step %d", at, b.Steps())
		}
	}
}

// TestBudgetStrideRounding: strides round up to powers of two.
func TestBudgetStrideRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024},
	} {
		if b := NewBudget(nil).WithStride(tc.in); b.stride != tc.want {
			t.Errorf("WithStride(%d) = %d, want %d", tc.in, b.stride, tc.want)
		}
	}
}

// bogusPattern is a Pattern node outside the implemented algebra, as a
// mutated or hand-built plan might contain.
type bogusPattern struct{}

func (bogusPattern) String() string { return "BOGUS" }
func (bogusPattern) isPattern()     {}

// TestUnknownPatternIsTypedError: an unsupported pattern node in a plan
// must surface as ErrUnsupportedPattern through the row engine —
// uncapped and capped — and the string algebra instead of
// panicking (the old behavior crashed the caller, lock held and all).
// The row engine is driven below EvalRows, whose schema is built from
// var(P) and so panics on such a node first, like Eval.
func TestUnknownPatternIsTypedError(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	sc, ok := NewVarSchema([]Var{"X"})
	if !ok {
		t.Fatal("schema rejected")
	}
	var up ErrUnsupportedPattern
	nested := And{L: TP(V("X"), I("p"), I("b")), R: bogusPattern{}}
	for _, p := range []Pattern{bogusPattern{}, nested} {
		for _, k := range []int{0, 1} {
			if _, err := newEvaluator(g, sc, nil).evalCap(p, k, nil); !errors.As(err, &up) {
				t.Fatalf("row engine (%s, cap %d): %v, want ErrUnsupportedPattern", p, k, err)
			}
		}
		if _, err := EvalBudget(g, p, nil); !errors.As(err, &up) {
			t.Fatalf("EvalBudget(%s): %v, want ErrUnsupportedPattern", p, err)
		}
	}
	if up.Error() == "" {
		t.Fatal("empty error text")
	}
}

// TestBudgetKindString covers the error-text side of the taxonomy.
func TestBudgetKindString(t *testing.T) {
	if got := (ErrBudgetExceeded{Kind: BudgetSteps}).Error(); got != "sparql: query budget exceeded: max steps" {
		t.Errorf("steps text: %q", got)
	}
	if got := (ErrBudgetExceeded{Kind: BudgetRows}).Error(); got != "sparql: query budget exceeded: max rows" {
		t.Errorf("rows text: %q", got)
	}
	if got := (ErrBudgetExceeded{Kind: BudgetMemory}).Error(); got != "sparql: query budget exceeded: max memory" {
		t.Errorf("memory text: %q", got)
	}
	if got := BudgetKind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind text: %q", got)
	}
}

// TestBudgetErrorCarriesLimit: every tripped limit must surface its
// configured value in both the typed error and the message, so an
// operator reading a 503 body knows which knob to raise and from what.
func TestBudgetErrorCarriesLimit(t *testing.T) {
	// Steps.
	b := NewBudget(nil).WithMaxSteps(3)
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = b.Step()
	}
	var be ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != BudgetSteps || be.Limit != 3 {
		t.Fatalf("steps: err=%v, want Kind=steps Limit=3", err)
	}
	if got := err.Error(); got != "sparql: query budget exceeded: max steps (limit 3)" {
		t.Errorf("steps text: %q", got)
	}

	// Rows.
	b = NewBudget(nil).WithMaxRows(2)
	err = b.AddRows(5)
	if !errors.As(err, &be) || be.Kind != BudgetRows || be.Limit != 2 {
		t.Fatalf("rows: err=%v, want Kind=rows Limit=2", err)
	}
	if got := err.Error(); got != "sparql: query budget exceeded: max rows (limit 2)" {
		t.Errorf("rows text: %q", got)
	}

	// Memory.  Width 4 → 40 bytes per row; the third row exceeds 100.
	b = NewBudget(nil).WithMaxBytes(100)
	err = nil
	for i := 0; i < 10 && err == nil; i++ {
		err = b.chargeRow(4)
	}
	if !errors.As(err, &be) || be.Kind != BudgetMemory || be.Limit != 100 {
		t.Fatalf("memory: err=%v, want Kind=memory Limit=100", err)
	}
	if got := err.Error(); got != "sparql: query budget exceeded: max memory (limit 100)" {
		t.Errorf("memory text: %q", got)
	}
}

// TestBudgetCounters: the Counters accessor exposes exact consumption
// snapshots (the profiler's budget-attribution source) and is nil-safe.
func TestBudgetCounters(t *testing.T) {
	var nilB *Budget
	if s, r, by := nilB.Counters(); s != 0 || r != 0 || by != 0 {
		t.Fatalf("nil budget counters: %d/%d/%d", s, r, by)
	}
	// chargeRow only accounts when a byte limit is armed.
	b := NewBudget(nil).WithMaxBytes(1 << 20)
	for i := 0; i < 7; i++ {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddRows(3); err != nil {
		t.Fatal(err)
	}
	if err := b.chargeRow(4); err != nil {
		t.Fatal(err)
	}
	steps, rows, bytes := b.Counters()
	if steps != 7 {
		t.Errorf("steps=%d, want 7", steps)
	}
	if rows != 3 {
		t.Errorf("rows=%d, want 3", rows)
	}
	if bytes != 40 {
		t.Errorf("bytes=%d, want 40 (width 4 → 8*(4+1))", bytes)
	}
}

// TestLeaseMaxStepsExact: stepping through leases, the limit fires on
// exactly the (maxSteps+1)-th step — whatever the stride, and whether
// the limit falls inside a lease, on its edge or many leases in — and
// the failing step is the last one the counter sees.
func TestLeaseMaxStepsExact(t *testing.T) {
	for _, stride := range []int64{1, 8, DefaultStride} {
		for _, limit := range []int64{1, leaseSteps - 1, leaseSteps, leaseSteps + 1, 100, 1023, 1024, 1025, 5000} {
			b := NewBudget(nil).WithStride(stride).WithMaxSteps(limit)
			l := b.lease()
			for i := int64(1); i <= limit; i++ {
				if err := l.step(); err != nil {
					t.Fatalf("stride %d, limit %d: step %d failed: %v", stride, limit, i, err)
				}
			}
			var be ErrBudgetExceeded
			if err := l.step(); !errors.As(err, &be) || be.Kind != BudgetSteps {
				t.Fatalf("stride %d, limit %d: step %d: got %v, want ErrBudgetExceeded{BudgetSteps}", stride, limit, limit+1, err)
			}
			l.release()
			if b.Steps() != limit+1 {
				t.Fatalf("stride %d, limit %d: counter at %d after the failing step", stride, limit, b.Steps())
			}
		}
	}
}

// TestLeaseInjectFaultExact: an injected fault fires on exactly the
// armed step of a leased loop, as TestBudgetInjectFaultExact has it for
// Step.
func TestLeaseInjectFaultExact(t *testing.T) {
	sentinel := errors.New("injected")
	for _, at := range []int64{0, 1, 2, leaseSteps, leaseSteps + 1, 500, 1023, 1024, 1025, 5000} {
		b := NewBudget(nil)
		b.InjectFault(at, sentinel)
		l := b.lease()
		taken := int64(0)
		var err error
		for err == nil {
			err = l.step()
			taken++
		}
		l.release()
		if !errors.Is(err, sentinel) {
			t.Fatalf("faultAt=%d: err = %v", at, err)
		}
		if want := max(at, 1); taken != want || b.Steps() != want {
			t.Fatalf("faultAt=%d: fired on step %d with the counter at %d", at, taken, b.Steps())
		}
	}
}

// TestLeaseCancellationLatency: a leased loop notices a canceled
// context within one stride, like a loop of Steps.
func TestLeaseCancellationLatency(t *testing.T) {
	for _, stride := range []int64{8, 256, DefaultStride} {
		ctx, cancel := context.WithCancel(context.Background())
		b := NewBudget(ctx).WithStride(stride)
		cancel()
		l := b.lease()
		var err error
		n := int64(0)
		for err == nil && n < 10*stride {
			err = l.step()
			n++
		}
		l.release()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("stride %d: err = %v after %d steps", stride, err, n)
		}
		if n > stride {
			t.Fatalf("stride %d: cancellation noticed after %d steps", stride, n)
		}
	}
}

// TestLeaseReturnsUnspentSteps: the counter leads the work only while
// a lease is live; released, it is the steps taken, and the next lease
// starts from there.
func TestLeaseReturnsUnspentSteps(t *testing.T) {
	b := NewBudget(nil)
	l := b.lease()
	for i := 0; i < 10; i++ {
		if err := l.step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Steps(); got != leaseSteps {
		t.Fatalf("live lease: counter at %d, want one allotment (%d)", got, leaseSteps)
	}
	l.release()
	l.release() // idempotent
	if got := b.Steps(); got != 10 {
		t.Fatalf("released lease: counter at %d, want 10", got)
	}
	l2 := b.lease()
	for i := 0; i < 3*leaseSteps; i++ {
		if err := l2.step(); err != nil {
			t.Fatal(err)
		}
	}
	l2.release()
	if got := b.Steps(); got != 10+3*leaseSteps {
		t.Fatalf("second lease: counter at %d, want %d", got, 10+3*leaseSteps)
	}
	// A nil budget leases without limit and counts nothing.
	var nilB *Budget
	ln := nilB.lease()
	for i := 0; i < 1000; i++ {
		if err := ln.step(); err != nil {
			t.Fatal(err)
		}
	}
	ln.release()
}

// TestLeaseSeesStickyError: a lease holder observes another worker's
// failure when it refills — within leaseSteps steps.
func TestLeaseSeesStickyError(t *testing.T) {
	b := NewBudget(nil)
	l := b.lease()
	if err := l.step(); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("elsewhere")
	b.fail(sentinel)
	n := 0
	var err error
	for err == nil && n <= leaseSteps {
		err = l.step()
		n++
	}
	l.release()
	if !errors.Is(err, sentinel) {
		t.Fatalf("failure not observed after %d steps: %v", n, err)
	}
}

// TestLeaseStepNIsNSteps: a bulk charge through a lease leaves the
// counter where n single steps would, and a limit inside the bulk
// fires on its own step.
func TestLeaseStepNIsNSteps(t *testing.T) {
	for _, n := range []int{0, 1, leaseSteps - 1, leaseSteps, 3*leaseSteps + 7, 5000} {
		b := NewBudget(nil)
		l := b.lease()
		if err := l.step(); err != nil {
			t.Fatal(err)
		}
		if err := l.stepN(n); err != nil {
			t.Fatalf("stepN(%d): %v", n, err)
		}
		l.release()
		if got := b.Steps(); got != int64(n)+1 {
			t.Fatalf("stepN(%d): counter at %d", n, got)
		}
	}
	b := NewBudget(nil).WithMaxSteps(1000)
	l := b.lease()
	var be ErrBudgetExceeded
	if err := l.stepN(5000); !errors.As(err, &be) || be.Kind != BudgetSteps {
		t.Fatalf("stepN over the limit: %v", err)
	}
	l.release()
	if b.Steps() != 1001 {
		t.Fatalf("stepN over the limit stopped with the counter at %d, want 1001", b.Steps())
	}
}
