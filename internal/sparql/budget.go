package sparql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
)

// The paper's complexity map (Theorems 7.1–7.4) guarantees that
// adversarial NS-SPARQL queries are intractable in the worst case:
// evaluation is DP-complete already for SPARQL[AUF], BH₂ₖ-hard for
// nested NS, and P^NP_∥-complete in general.  A production engine
// therefore cannot promise to *finish* every query — it can only
// promise to *stop*.  Budget is that promise: a per-query resource
// envelope (deadline via context.Context, maximum search steps,
// maximum result rows, and a coarse memory estimate) threaded through
// every evaluation path.
//
// The engine charges one step per unit of work (a triple-index probe,
// a join candidate pair, a subsumption check).  Step is designed to be
// nearly free: a nil *Budget short-circuits immediately, and a live one
// only bumps an atomic counter and compares it against a precomputed
// checkpoint.  The expensive part — polling ctx.Err() — runs once per
// stride (default 1024 steps), so the engine notices cancellation
// within a bounded, small amount of work while the per-step overhead
// stays in the noise.
//
// An atomic add per step is still one contended cache line per step
// once two workers share the Budget, so the operators' hot loops do
// not call Step: each takes a stepLease (below) — a goroutine-private
// allotment of up to leaseSteps steps bought with one atomic operation
// and counted down in a register — and returns what it did not use
// when the loop ends.
//
// # Memory-ordering contract
//
// An evaluation charges its Budget from one goroutine, but a Budget may
// be shared by several goroutines, so the accounting state is safe for
// concurrent use.  The contract is:
//
//   - Configuration (NewBudget, WithMaxSteps, WithMaxRows, WithMaxBytes,
//     WithStride, InjectFault) must complete before evaluation starts.
//     The limits, the context, and the fault hook are plain fields read
//     without synchronization by the hot path; a goroutine that charges
//     the budget must be started after configuration (Go's go-statement
//     ordering).  Configuring a Budget concurrently with Step is a data
//     race.
//   - The counters (steps, rows, bytes) and the checkpoint are atomics.
//     Charging is an atomic add; readers (Steps, the checkpoint
//     comparison) see snapshots.  Counts are exact — no charge is
//     lost — but which worker crosses a limit first is
//     scheduling-dependent.
//   - A lease moves steps from the shared counter to one goroutine
//     ahead of the work: the counter is then the steps taken plus the
//     steps outstanding in live leases, so while workers run it may
//     lead the work done by at most leaseSteps per live lease, and it
//     steps back when a lease returns its remainder.  A lease is never
//     granted up to or past the checkpoint: the step that reaches
//     checkAt is always a real Step, taken by whichever goroutine gets
//     there, so a step limit, an injected fault and the context poll
//     fire at exactly the counter value they would fire at without
//     leases.  One goroutine holds at most one lease at a time (loops
//     that hold one call nothing that steps), so a serial evaluation's
//     counter is exact at every checkpoint and, every lease returned,
//     at the end of every operator.  A holder looks at the sticky error
//     when it refills, so it notices another worker's failure within
//     leaseSteps steps.
//   - The sticky error is published once with a compare-and-swap and
//     read by every Step before doing any work, so after one worker
//     trips the governor, every other worker observes the failure on
//     its next Step and unwinds.  The *first* published error wins and
//     is returned forever after, from every goroutine.
//   - The fault-injection hook fires at most once (the CAS), even when
//     several workers cross faultAt together.

// ErrCanceled is returned (wrapped) when evaluation stops because the
// query's context was canceled or its deadline expired.  The cause is
// wrapped too, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) distinguish timeout from client
// cancellation.
var ErrCanceled = errors.New("sparql: query canceled")

// BudgetKind identifies which resource of a Budget ran out.
type BudgetKind uint8

const (
	// BudgetSteps: the search-step limit (MaxSteps) was reached.
	BudgetSteps BudgetKind = iota
	// BudgetRows: the result-row limit (MaxRows) was reached.
	BudgetRows
	// BudgetMemory: the estimated memory limit (MaxBytes) was reached.
	BudgetMemory
)

func (k BudgetKind) String() string {
	switch k {
	case BudgetSteps:
		return "steps"
	case BudgetRows:
		return "rows"
	case BudgetMemory:
		return "memory"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrBudgetExceeded reports that a query exhausted one of its resource
// limits.  Match with errors.As; Kind says which limit tripped and
// Limit carries its configured value, so the error string alone is
// enough to tune the envelope ("raise -max-steps" vs "raise -max-rows").
type ErrBudgetExceeded struct {
	Kind  BudgetKind
	Limit int64 // the configured limit that tripped; 0 when unknown
}

func (e ErrBudgetExceeded) Error() string {
	msg := "sparql: query budget exceeded: max " + e.Kind.String()
	if e.Limit > 0 {
		msg += " (limit " + strconv.FormatInt(e.Limit, 10) + ")"
	}
	return msg
}

// ErrUnsupportedPattern reports a pattern node outside the algebra the
// engine implements — a malformed plan.  It is returned through the
// error paths instead of panicking, so a bad plan cannot crash a
// caller holding locks.
type ErrUnsupportedPattern struct {
	Pattern Pattern
}

func (e ErrUnsupportedPattern) Error() string {
	return fmt.Sprintf("sparql: unknown pattern type %T", e.Pattern)
}

// DefaultStride is how many steps pass between context polls.  Powers
// of two only; the default keeps the poll far off the hot path while
// bounding the engine's reaction latency to ~a thousand index probes.
const DefaultStride = 1024

// budgetErr boxes the sticky error so it can sit behind an
// atomic.Pointer (interfaces cannot).
type budgetErr struct{ err error }

// Budget is a query's resource envelope.  The zero limits mean
// "unlimited"; a nil *Budget is valid everywhere and disables all
// accounting (every method on a nil receiver returns nil), so legacy
// entry points simply pass nil.
//
// A Budget governs one query (see the memory-ordering contract above);
// sharing one Budget across *different* queries is not supported.
type Budget struct {
	ctx      context.Context // nil: never canceled
	maxSteps int64           // 0: unlimited
	maxRows  int64           // 0: unlimited
	maxBytes int64           // 0: unlimited
	stride   int64           // power of two

	steps   atomic.Int64
	rows    atomic.Int64
	bytes   atomic.Int64
	checkAt atomic.Int64              // next steps value that triggers a full check
	failed  atomic.Pointer[budgetErr] // sticky: first failure, returned forever after

	faultAt  int64 // fault injection: fire once steps >= faultAt
	faultErr error // nil: injection disabled
}

// NewBudget returns a budget tied to ctx (nil is allowed and means "no
// cancellation") with no resource limits and the default stride.  A
// context that is already dead poisons the budget immediately, so a
// query on a canceled request fails on its first step instead of a
// stride later.
func NewBudget(ctx context.Context) *Budget {
	b := &Budget{ctx: ctx, stride: DefaultStride}
	if ctx != nil {
		if ce := ctx.Err(); ce != nil {
			b.fail(fmt.Errorf("%w (%w)", ErrCanceled, ce))
		}
	}
	b.recalc()
	return b
}

// WithMaxSteps bounds the total search steps (0 = unlimited).
func (b *Budget) WithMaxSteps(n int64) *Budget {
	b.maxSteps = n
	b.recalc()
	return b
}

// WithMaxRows bounds the number of result rows a query may return
// (0 = unlimited).  Unlike LIMIT, hitting it is an error: the answer
// would be silently wrong if truncated.
func (b *Budget) WithMaxRows(n int64) *Budget {
	b.maxRows = n
	return b
}

// WithMaxBytes bounds the estimated bytes of materialized intermediate
// rows (0 = unlimited).  The estimate is coarse — row widths times
// rows retained — and exists to stop runaway joins, not to account
// precisely.
func (b *Budget) WithMaxBytes(n int64) *Budget {
	b.maxBytes = n
	return b
}

// WithStride sets the context-poll stride, rounded up to a power of
// two (minimum 1).  Small strides are for tests.
func (b *Budget) WithStride(n int64) *Budget {
	s := int64(1)
	for s < n {
		s <<= 1
	}
	b.stride = s
	b.recalc()
	return b
}

// InjectFault arms the test-only fault hook: the first Step at or
// after afterSteps total steps fails with err (sticky).  It simulates
// cancellation or budget exhaustion at an exact point of the search,
// so tests can probe every unwind path; production code never calls
// it.  Like the other configuration methods it must be called before
// evaluation starts; the sticky-error CAS guarantees the fault fires
// at most once even when several workers cross afterSteps together.
func (b *Budget) InjectFault(afterSteps int64, err error) {
	b.faultAt = afterSteps
	b.faultErr = err
	b.recalc()
}

// Steps reports the search steps consumed so far, steps held in live
// leases included (see the memory-ordering contract): exact once the
// evaluation has returned, a snapshot while it runs.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// Counters reports the resources consumed so far — search steps,
// result rows and estimated bytes.  Under concurrent evaluation each
// value is a snapshot; the profiler diffs two Counters calls to
// attribute consumption to an operator's wall-clock window.
func (b *Budget) Counters() (steps, rows, bytes int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.steps.Load(), b.rows.Load(), b.bytes.Load()
}

// Err returns the sticky failure, if any.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// fail publishes err as the sticky failure; the first publisher wins
// and every caller gets the winning error back.
func (b *Budget) fail(err error) error {
	b.failed.CompareAndSwap(nil, &budgetErr{err: err})
	return b.failed.Load().err
}

// recalc positions the next checkpoint: the next stride boundary,
// clipped so that step limits and injected faults fire exactly.
func (b *Budget) recalc() {
	b.recalcFrom(b.steps.Load())
}

func (b *Budget) recalcFrom(steps int64) {
	n := steps + b.stride
	if b.maxSteps > 0 && b.maxSteps+1 < n {
		n = b.maxSteps + 1
	}
	if b.faultErr != nil && b.faultAt < n {
		n = b.faultAt
	}
	if n <= steps {
		n = steps + 1
	}
	b.checkAt.Store(n)
}

// Step charges one unit of search work: nil receiver and
// non-checkpoint steps return after one atomic add.  Callers outside
// the operators' row loops (the string evaluator, one charge per
// operator node) use it directly.
func (b *Budget) Step() error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	s := b.steps.Add(1)
	if s < b.checkAt.Load() {
		return nil
	}
	return b.check(s)
}

// StepN charges n units at once (bulk loops that know their size).
func (b *Budget) StepN(n int) error {
	if b == nil || n <= 0 {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	s := b.steps.Add(int64(n))
	if s < b.checkAt.Load() {
		return nil
	}
	return b.check(s)
}

// check runs the full (slow-path) inspection at a checkpoint.  Several
// workers may enter it together; the sticky CAS keeps the outcome
// single-valued and recalc is idempotent.
func (b *Budget) check(steps int64) error {
	if b.faultErr != nil && steps >= b.faultAt {
		return b.fail(b.faultErr)
	}
	if b.maxSteps > 0 && steps > b.maxSteps {
		return b.fail(ErrBudgetExceeded{Kind: BudgetSteps, Limit: b.maxSteps})
	}
	if b.ctx != nil {
		if ce := b.ctx.Err(); ce != nil {
			return b.fail(fmt.Errorf("%w (%w)", ErrCanceled, ce))
		}
	}
	b.recalcFrom(steps)
	return nil
}

// leaseSteps bounds one lease: large enough that two workers touch the
// shared counter a few dozen times less often, small enough that the
// counter never leads the work by more than a sliver of a stride.
const leaseSteps = 64

// stepLease is a goroutine's private allotment of budget steps; see the
// memory-ordering contract.  The zero lease of a nil Budget is valid
// and unlimited.  Hold it in a local, step it once per unit of work,
// and release it before returning or calling anything that steps.
type stepLease struct {
	b    *Budget
	left int64
}

func (b *Budget) lease() stepLease { return stepLease{b: b} }

// step charges one unit of work to the lease, refilling it from the
// budget when it is spent.
func (l *stepLease) step() error {
	if l.left > 0 {
		l.left--
		return nil
	}
	return l.refill()
}

// stepN charges n units of work a bulk operation is about to do —
// exactly like n calls of step, so a limit inside the n still fires on
// its own step, in a few operations per allotment.
func (l *stepLease) stepN(n int) error {
	for n > 0 {
		if l.left == 0 {
			if err := l.refill(); err != nil {
				return err
			}
			n--
			continue
		}
		k := min(int64(n), l.left)
		l.left -= k
		n -= int(k)
	}
	return nil
}

// refill takes the next allotment — as many steps as fit below the
// checkpoint, leaseSteps at most — and spends its first step; when the
// next step is the checkpoint itself it takes that one step the slow
// way.
func (l *stepLease) refill() error {
	b := l.b
	if b == nil {
		l.left = 1 << 62
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	for {
		cur := b.steps.Load()
		n := min(b.checkAt.Load()-cur-1, leaseSteps)
		if n <= 0 {
			return b.Step()
		}
		if b.steps.CompareAndSwap(cur, cur+n) {
			l.left = n - 1
			return nil
		}
	}
}

// release returns the unspent steps to the budget.
func (l *stepLease) release() {
	if l.b != nil && l.left > 0 {
		l.b.steps.Add(-l.left)
	}
	l.left = 0
}

// AddRows charges n result rows against the row limit.
func (b *Budget) AddRows(n int) error {
	if b == nil {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	r := b.rows.Add(int64(n))
	if b.maxRows > 0 && r > b.maxRows {
		return b.fail(ErrBudgetExceeded{Kind: BudgetRows, Limit: b.maxRows})
	}
	return nil
}

// chargeRow charges the estimated footprint of one materialized row of
// the given slot width against the memory limit.
func (b *Budget) chargeRow(width int) error { return b.chargeRows(width, 1) }

// chargeRows charges n rows at once (bulk copies).
func (b *Budget) chargeRows(width, n int) error {
	if b == nil || b.maxBytes == 0 {
		return nil
	}
	if f := b.failed.Load(); f != nil {
		return f.err
	}
	total := b.bytes.Add(int64(n) * (8*int64(width) + 8)) // IDs + mask word
	if total > b.maxBytes {
		return b.fail(ErrBudgetExceeded{Kind: BudgetMemory, Limit: b.maxBytes})
	}
	return nil
}
