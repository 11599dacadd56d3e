package query

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrRowBudget is returned by Gate.Step and Gate.Poll once the join-row
// budget is exhausted.
var ErrRowBudget = errors.New("query: join-row budget exhausted")

// ErrTupleBudget is returned by Gate.ChargeTuples and Gate.Poll once the
// allocated-tuple budget is exhausted.
var ErrTupleBudget = errors.New("query: tuple budget exhausted")

// Gate governs long-running evaluation loops. It carries a cancellation
// signal (a context's Done channel) plus two shared monotone budgets:
// join-row steps (charged by Step, once per row an evaluation loop
// enumerates) and an allocated-tuple estimate (charged by ChargeTuples
// when candidate extensions are materialized).
//
// A nil *Gate is inert: every method returns nil at the cost of a single
// nil check, so ungoverned call paths pay (almost) nothing. A single
// Gate may be shared by many goroutines; all state is a done channel and
// atomic counters.
//
// Error priority is fixed — cancellation, then rows, then tuples — so
// that once counters stop moving every observer reports the same error
// regardless of which check happened to trip first. This is what makes
// budget accounting deterministic across Workers=1 and Workers=N for
// decisive budgets (see DESIGN.md "Resource governance").
type Gate struct {
	done     <-chan struct{}
	cause    func() error // maps a fired done channel to its error
	rows     atomic.Int64
	tuples   atomic.Int64
	rowCap   int64       // 0 = unlimited
	tupleCap int64       // 0 = unlimited
	tripped  atomic.Bool // set once by the first stop observation
}

// NewGate builds a gate from a context and budget caps (0 = unlimited).
// A nil context is treated as context.Background().
func NewGate(ctx context.Context, rowCap, tupleCap int64) *Gate {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Gate{done: ctx.Done(), cause: ctx.Err, rowCap: rowCap, tupleCap: tupleCap}
}

// cancelErr returns the context's error if the done channel has fired.
// Receiving on a nil channel blocks, so the default arm handles both the
// not-yet-cancelled and the never-cancellable (Background) cases.
func (g *Gate) cancelErr() error {
	select {
	case <-g.done:
		if err := g.cause(); err != nil {
			return err
		}
		return context.Canceled
	default:
		return nil
	}
}

// trip records the gate's first stop observation in the obs layer and
// returns err unchanged. Loops keep observing a stopped gate on every
// poll, so the CAS guard makes the trip counter and trace event fire
// exactly once per gate; the cost is confined to error paths.
func (g *Gate) trip(err error) error {
	if err != nil && g.tripped.CompareAndSwap(false, true) {
		reason := reasonLabel(err)
		obs.GateTrips.Inc(reason)
		if obs.Tracing() {
			obs.Emit("gate_trip", map[string]any{"reason": reason})
		}
	}
	return err
}

// reasonLabel names a gate stop for the obs layer, matching the
// core.Reason vocabulary.
func reasonLabel(err error) string {
	switch {
	case errors.Is(err, ErrRowBudget):
		return "join-rows"
	case errors.Is(err, ErrTupleBudget):
		return "tuples"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "cancelled"
	}
}

// Step charges one join-row step and reports whether execution should
// stop. It is called once per enumerated row on evaluation hot paths, so
// a cancelled context stops a governed search within one row-step.
func (g *Gate) Step() error {
	if g == nil {
		return nil
	}
	n := g.rows.Add(1)
	if err := g.cancelErr(); err != nil {
		return g.trip(err)
	}
	if g.rowCap > 0 && n > g.rowCap {
		return g.trip(ErrRowBudget)
	}
	return nil
}

// StepN charges n join-row steps at once and reports whether execution
// should stop. Per-evaluation accumulators (see the cq join engine)
// batch their row charges through it so the shared atomic counter and
// the cancellation check are paid once per batch instead of once per
// row; cancellation detection is then bounded by the batch size rather
// than a single row-step.
func (g *Gate) StepN(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	total := g.rows.Add(n)
	if err := g.cancelErr(); err != nil {
		return g.trip(err)
	}
	if g.rowCap > 0 && total > g.rowCap {
		return g.trip(ErrRowBudget)
	}
	return nil
}

// Poll checks for cancellation and budget exhaustion without charging
// anything. Search nodes that are not join rows (e.g. valuation-search
// tree nodes) poll so they stop promptly when another loop trips the
// gate.
func (g *Gate) Poll() error {
	if g == nil {
		return nil
	}
	if err := g.cancelErr(); err != nil {
		return g.trip(err)
	}
	if g.rowCap > 0 && g.rows.Load() > g.rowCap {
		return g.trip(ErrRowBudget)
	}
	if g.tupleCap > 0 && g.tuples.Load() > g.tupleCap {
		return g.trip(ErrTupleBudget)
	}
	return nil
}

// ChargeTuples charges n materialized tuples against the tuple budget.
func (g *Gate) ChargeTuples(n int) error {
	if g == nil {
		return nil
	}
	t := g.tuples.Add(int64(n))
	if err := g.cancelErr(); err != nil {
		return g.trip(err)
	}
	if g.tupleCap > 0 && t > g.tupleCap {
		return g.trip(ErrTupleBudget)
	}
	return nil
}

// Rows returns the number of join-row steps charged so far.
func (g *Gate) Rows() int64 {
	if g == nil {
		return 0
	}
	return g.rows.Load()
}

// Tuples returns the number of tuples charged so far.
func (g *Gate) Tuples() int64 {
	if g == nil {
		return 0
	}
	return g.tuples.Load()
}
