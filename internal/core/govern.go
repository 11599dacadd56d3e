package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/query"
)

// Resource governance. The Σ₂ᵖ/Σ₃ᵖ lower bounds of Tables I–II mean a
// checker serving interactive traffic cannot promise termination within
// any useful deadline; a governed check therefore carries a
// context.Context plus a Budget and returns a three-valued Verdict:
// Complete/Incomplete when the search finished, Unknown (with the
// exhausted dimension as a Reason and whatever best-effort state was
// gathered) when governance ended it first. Every decision procedure
// has exactly this one governed entry point.

// Verdict is the three-valued outcome of a governed check.
type Verdict int

const (
	// VerdictUnknown means governance (cancellation, deadline or a
	// budget) stopped the search before it could decide.
	VerdictUnknown Verdict = iota
	// VerdictComplete means the search exhausted the space: D is
	// relatively complete.
	VerdictComplete
	// VerdictIncomplete means a counterexample extension was found.
	VerdictIncomplete
)

func (v Verdict) String() string {
	switch v {
	case VerdictComplete:
		return "complete"
	case VerdictIncomplete:
		return "incomplete"
	default:
		return "unknown"
	}
}

// Reason names the governance dimension behind an Unknown verdict.
type Reason int

const (
	// ReasonNone: the verdict is decisive, no budget was exhausted.
	ReasonNone Reason = iota
	// ReasonCancelled: the caller's context was cancelled.
	ReasonCancelled
	// ReasonDeadline: the wall-clock deadline (Budget.Timeout or a
	// caller-supplied context deadline) expired.
	ReasonDeadline
	// ReasonValuations: the candidate-valuation budget ran out.
	ReasonValuations
	// ReasonJoinRows: the join-row step budget ran out.
	ReasonJoinRows
	// ReasonTuples: the allocated-tuple budget ran out.
	ReasonTuples
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline"
	case ReasonValuations:
		return "valuations"
	case ReasonJoinRows:
		return "join-rows"
	case ReasonTuples:
		return "tuples"
	default:
		return "reason(?)"
	}
}

// Budget bounds the resources of one check. The zero value is
// unlimited. All dimensions are global to the check (shared across
// disjuncts and workers) except MaxValuations, which caps candidate
// valuations per disjunct.
type Budget struct {
	// Timeout, when positive, is a wall-clock deadline for the whole
	// check (applied via context.WithTimeout on top of the caller's
	// context).
	Timeout time.Duration
	// MaxValuations, when positive, caps candidate valuations per
	// disjunct; exceeding it stops the check with ReasonValuations.
	MaxValuations int
	// MaxJoinRows, when positive, caps the total number of join-row
	// steps charged by evaluation loops (query evaluation, constraint
	// checks, differential checks) across the whole check.
	MaxJoinRows int64
	// MaxTuples, when positive, caps the estimated number of tuples
	// materialized for candidate extensions across the whole check.
	MaxTuples int64
}

// IsZero reports whether the budget is entirely unlimited.
func (b Budget) IsZero() bool {
	return b.Timeout <= 0 && b.MaxValuations <= 0 && b.MaxJoinRows <= 0 && b.MaxTuples <= 0
}

// Clamp limits b by a ceiling budget, dimension by dimension: where the
// ceiling is set (positive), an unset (non-positive) or larger value of
// b is replaced by the ceiling; a stricter value of b is kept. Where
// the ceiling is unset, b passes through unchanged. Serving layers use
// it to honor per-request budget overrides without letting a request
// exceed operator-configured limits: unlimited requests inherit the
// ceiling rather than unbounded search.
func (b Budget) Clamp(ceiling Budget) Budget {
	if ceiling.Timeout > 0 && (b.Timeout <= 0 || b.Timeout > ceiling.Timeout) {
		b.Timeout = ceiling.Timeout
	}
	if ceiling.MaxValuations > 0 && (b.MaxValuations <= 0 || b.MaxValuations > ceiling.MaxValuations) {
		b.MaxValuations = ceiling.MaxValuations
	}
	if ceiling.MaxJoinRows > 0 && (b.MaxJoinRows <= 0 || b.MaxJoinRows > ceiling.MaxJoinRows) {
		b.MaxJoinRows = ceiling.MaxJoinRows
	}
	if ceiling.MaxTuples > 0 && (b.MaxTuples <= 0 || b.MaxTuples > ceiling.MaxTuples) {
		b.MaxTuples = ceiling.MaxTuples
	}
	return b
}

// BudgetStats reports the resources a governed check consumed; it is
// filled in whether or not the check finished.
// JoinRows and Tuples are only counted on governed runs (a nil gate —
// no context, no budget — keeps the hot paths uninstrumented).
type BudgetStats struct {
	// Valuations is the number of candidate valuations inspected.
	Valuations int
	// JoinRows is the number of join-row steps charged.
	JoinRows int64
	// Tuples is the estimated number of materialized extension tuples.
	Tuples int64
	// Elapsed is the wall-clock duration of the check.
	Elapsed time.Duration
}

// governor is the per-check governance state: the derived context's
// gate plus timing. A nil *governor is the ungoverned path.
type governor struct {
	gate   *query.Gate
	start  time.Time
	cancel context.CancelFunc
}

// newGovernor derives the governance state for one check. It returns
// nil (ungoverned — zero instrumentation cost) when the context can
// never be cancelled and the budget has no gate-enforced dimension.
// The caller must call close() when the check ends (releases the
// timeout timer).
func newGovernor(ctx context.Context, b Budget) *governor {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if b.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
	}
	if ctx.Done() == nil && b.MaxJoinRows <= 0 && b.MaxTuples <= 0 {
		// Unreachable after WithTimeout (a timeout makes Done non-nil),
		// so the cancel being released here is always the no-op one.
		cancel()
		return nil
	}
	return &governor{
		gate:   query.NewGate(ctx, b.MaxJoinRows, b.MaxTuples),
		start:  time.Now(),
		cancel: cancel,
	}
}

// gateOf returns the governor's gate (nil for the ungoverned path).
func (gv *governor) gateOf() *query.Gate {
	if gv == nil {
		return nil
	}
	return gv.gate
}

// close releases the governor's timeout resources.
func (gv *governor) close() {
	if gv != nil {
		gv.cancel()
	}
}

// stats assembles the consumption report for a (possibly unfinished)
// check.
func (gv *governor) stats(valuations int) BudgetStats {
	st := BudgetStats{Valuations: valuations}
	if gv != nil {
		st.JoinRows = gv.gate.Rows()
		st.Tuples = gv.gate.Tuples()
		st.Elapsed = time.Since(gv.start)
	}
	return st
}

// reasonOf classifies a search-stopping error into a Reason;
// ReasonNone means the error is a genuine failure, not governance.
// Priority is fixed (deadline before cancel within the context errors;
// the sentinels are disjoint) so classification is deterministic.
func reasonOf(err error) Reason {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, context.Canceled):
		return ReasonCancelled
	case errors.Is(err, ErrBudgetExceeded):
		return ReasonValuations
	case errors.Is(err, query.ErrRowBudget):
		return ReasonJoinRows
	case errors.Is(err, query.ErrTupleBudget):
		return ReasonTuples
	default:
		return ReasonNone
	}
}

// isGovernErr reports whether err is a governance stop (budget or
// cancellation) rather than a genuine failure.
func isGovernErr(err error) bool { return reasonOf(err) != ReasonNone }
