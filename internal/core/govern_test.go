package core

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
)

// Governance tests: a governed check must stop for exactly the right
// Reason, stop promptly, leak nothing, and behave identically at
// Workers=1 and Workers=8. The Makefile race target runs this file
// under -race, so the cancellation paths are also exercised for data
// races between the gate and the worker pool.

// completeFixture returns a (q, d, dm, vset) instance that is complete
// (no witness can pre-empt a budget claim): at-most-n already holds
// with exactly n customers under e0, so the completeness scan must
// exhaust a candidate space that grows with n.
func completeFixture(n int) (qlang.Query, *relation.Database, *relation.Database, *cc.Set) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, n))
	d := relation.NewDatabase(suptSchema())
	for i := 0; i < n; i++ {
		d.MustAdd("Supt", "e0", "s", "c"+strconv.Itoa(i))
	}
	return q2(), d, emptyMaster(), vset
}

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	t.Cleanup(cancel)
	return ctx
}

// TestRCDPCtxPreCancelled: a context cancelled before the call yields
// Unknown/cancelled (not an error) at both worker counts, and the
// partial stats are well-formed.
func TestRCDPCtxPreCancelled(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers}
		r, err := ck.RCDPCtx(cancelledCtx(), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictUnknown || r.Reason != ReasonCancelled {
			t.Fatalf("workers=%d: want unknown/cancelled, got %v/%v", workers, r.Verdict, r.Reason)
		}
		if r.Complete {
			t.Fatalf("workers=%d: Unknown result must not claim completeness", workers)
		}
		if r.Extension != nil || r.NewTuple != nil {
			t.Fatalf("workers=%d: cancelled run fabricated a witness: %v %v", workers, r.Extension, r.NewTuple)
		}
	}
}

// TestRCDPCtxExpiredDeadline: an already-expired caller deadline is
// classified as deadline, not cancellation, at both worker counts.
func TestRCDPCtxExpiredDeadline(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers}
		r, err := ck.RCDPCtx(expiredCtx(t), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictUnknown || r.Reason != ReasonDeadline {
			t.Fatalf("workers=%d: want unknown/deadline, got %v/%v", workers, r.Verdict, r.Reason)
		}
	}
}

// TestRCDPCtxBudgetTimeout: Budget.Timeout alone (background context)
// installs a deadline. The fixture's scan is far heavier than the
// budget, so the verdict must be unknown/deadline with elapsed time
// recorded.
func TestRCDPCtxBudgetTimeout(t *testing.T) {
	q, d, dm, vset := completeFixture(150)
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers, Budget: Budget{Timeout: time.Millisecond}}
		start := time.Now()
		r, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictUnknown || r.Reason != ReasonDeadline {
			t.Fatalf("workers=%d: want unknown/deadline, got %v/%v", workers, r.Verdict, r.Reason)
		}
		if r.Stats.Elapsed <= 0 {
			t.Fatalf("workers=%d: Stats.Elapsed not recorded: %+v", workers, r.Stats)
		}
		// "Promptly" for a deadline stop: one row-step granularity, far
		// below the seconds the ungoverned scan would take.
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("workers=%d: deadline stop took %v", workers, waited)
		}
	}
}

// TestRCDPCtxRowBudget: MaxJoinRows stops the scan with
// unknown/join-rows at both worker counts, and the row counter reflects
// at least the exhausted cap.
func TestRCDPCtxRowBudget(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	const capRows = 50
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers, Budget: Budget{MaxJoinRows: capRows}}
		r, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictUnknown || r.Reason != ReasonJoinRows {
			t.Fatalf("workers=%d: want unknown/join-rows, got %v/%v", workers, r.Verdict, r.Reason)
		}
		if r.Stats.JoinRows < capRows {
			t.Fatalf("workers=%d: JoinRows=%d below the exhausted cap %d", workers, r.Stats.JoinRows, capRows)
		}
	}
}

// TestRCDPCtxTupleBudget: MaxTuples stops the scan with unknown/tuples
// (candidate deltas charge their tuple counts) at both worker counts.
func TestRCDPCtxTupleBudget(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers, Budget: Budget{MaxTuples: 1}}
		r, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictUnknown || r.Reason != ReasonTuples {
			t.Fatalf("workers=%d: want unknown/tuples, got %v/%v", workers, r.Verdict, r.Reason)
		}
		if r.Stats.Tuples <= 1 {
			t.Fatalf("workers=%d: Tuples=%d does not reflect the exhausted cap", workers, r.Stats.Tuples)
		}
	}
}

// TestRCDPCtxGenerousBudgetDecides: a budget far above the instance's
// needs must not change the verdict — governed and ungoverned runs
// agree, and the governed stats are populated.
func TestRCDPCtxGenerousBudgetDecides(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	base, err := RCDP(q, d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		ck := &Checker{Workers: workers, Budget: Budget{
			Timeout: time.Minute, MaxJoinRows: 1 << 40, MaxTuples: 1 << 40,
		}}
		r, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Verdict != VerdictComplete || r.Reason != ReasonNone {
			t.Fatalf("workers=%d: want complete/no-reason, got %v/%v", workers, r.Verdict, r.Reason)
		}
		if r.Complete != base.Complete {
			t.Fatalf("workers=%d: governed and ungoverned verdicts diverge", workers)
		}
		if r.Stats.JoinRows == 0 || r.Stats.Elapsed <= 0 {
			t.Fatalf("workers=%d: governed run left stats empty: %+v", workers, r.Stats)
		}
	}
}

// TestLegacyWrapperSentinels: the non-Ctx entry points translate each
// Unknown reason back into its sentinel error.
func TestLegacyWrapperSentinels(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	cases := []struct {
		name   string
		budget Budget
		want   error
	}{
		{"rows", Budget{MaxJoinRows: 50}, query.ErrRowBudget},
		{"tuples", Budget{MaxTuples: 1}, query.ErrTupleBudget},
		{"valuations", Budget{MaxValuations: 1}, ErrBudgetExceeded},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			ck := &Checker{Workers: workers, Budget: tc.budget}
			if _, err := ck.RCDP(q, d, dm, vset); !errors.Is(err, tc.want) {
				t.Fatalf("%s workers=%d: want %v, got %v", tc.name, workers, tc.want, err)
			}
		}
	}
}

// TestReasonErrRoundTrip: reasonOf inverts Reason.Err, so the wrapper
// translation and the governed classification can never disagree.
func TestReasonErrRoundTrip(t *testing.T) {
	for _, r := range []Reason{ReasonCancelled, ReasonDeadline, ReasonValuations, ReasonJoinRows, ReasonTuples} {
		if got := reasonOf(r.Err()); got != r {
			t.Fatalf("reasonOf(%v.Err()) = %v", r, got)
		}
	}
	if ReasonNone.Err() != nil {
		t.Fatalf("ReasonNone.Err() = %v", ReasonNone.Err())
	}
	if reasonOf(errors.New("boom")) != ReasonNone {
		t.Fatal("genuine failures must classify as ReasonNone")
	}
}

// TestRCDPCtxMidSearchCancel: cancelling a running search returns
// promptly (row-step granularity) with unknown/cancelled; checked at
// both worker counts on an instance whose full scan takes far longer
// than the cancellation lag.
func TestRCDPCtxMidSearchCancel(t *testing.T) {
	q, d, dm, vset := completeFixture(200)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		ck := &Checker{Workers: workers}
		type outcome struct {
			r   *RCDPResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			r, err := ck.RCDPCtx(ctx, q, d, dm, vset)
			done <- outcome{r, err}
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("workers=%d: unexpected error %v", workers, out.err)
			}
			if out.r.Verdict != VerdictUnknown || out.r.Reason != ReasonCancelled {
				t.Fatalf("workers=%d: want unknown/cancelled, got %v/%v", workers, out.r.Verdict, out.r.Reason)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: cancelled search did not return", workers)
		}
	}
}

// TestCancelledSearchLeaksNoGoroutines: repeated cancelled parallel
// searches must leave the goroutine count where it started (worker
// pools are per-call and must drain on cancellation).
func TestCancelledSearchLeaksNoGoroutines(t *testing.T) {
	q, d, dm, vset := completeFixture(60)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ck := &Checker{Workers: 8}
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		if _, err := ck.RCDPCtx(ctx, q, d, dm, vset); err != nil {
			t.Fatal(err)
		}
	}
	// Give drained workers a moment to exit, then require the count to
	// settle back to (near) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRCQPCtxGovernance: RCQP under a pre-cancelled context and under a
// row budget reports Unknown with the right reason at both worker
// counts, and its legacy wrapper surfaces the sentinels.
func TestRCQPCtxGovernance(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	// A non-IND set: the all-IND E3/E4 path is syntactic and may decide
	// before ever touching the gate, while the certificate search polls
	// on every candidate valuation.
	cs := microConstraintSets()[5] // atmost1
	q := microQueries()[0]
	for _, workers := range []int{1, 8} {
		ck := &QPChecker{Checker: Checker{Workers: workers}}
		res, err := ck.RCQPCtx(cancelledCtx(), q, cs.dm, cs.v, schemas)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if res.Status != Unknown || res.Reason != ReasonCancelled {
			t.Fatalf("workers=%d: want unknown/cancelled, got %v/%v", workers, res.Status, res.Reason)
		}

		rck := &QPChecker{Checker: Checker{Workers: workers, Budget: Budget{MaxJoinRows: 3}}}
		res, err = rck.RCQPCtx(context.Background(), q, cs.dm, cs.v, schemas)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if res.Status != Unknown || res.Reason != ReasonJoinRows {
			t.Fatalf("workers=%d: want unknown/join-rows, got %v/%v", workers, res.Status, res.Reason)
		}
		if _, err := rck.RCQP(q, cs.dm, cs.v, schemas); !errors.Is(err, query.ErrRowBudget) {
			t.Fatalf("workers=%d: legacy wrapper want ErrRowBudget, got %v", workers, err)
		}
	}
}

// TestBoundedCtxGovernance: the bounded semi-decision procedures under
// a pre-cancelled context and under a row budget report Unknown with
// the right reason, at both worker counts, and their legacy wrappers
// surface the sentinels.
func TestBoundedCtxGovernance(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	cs := microConstraintSets()[1]
	q := microQueries()[2] // the 2-atom join: enough rows to charge
	d := relation.NewDatabase(r, f)
	d.MustAdd("R", "a", "b")

	for _, workers := range []int{1, 8} {
		opts := BoundedOpts{MaxAdd: 2, FreshValues: 3, Workers: workers}

		br, err := BoundedRCDPCtx(cancelledCtx(), q, d, cs.dm, cs.v, opts)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if br.Verdict != VerdictUnknown || br.Reason != ReasonCancelled {
			t.Fatalf("workers=%d: bounded RCDP want unknown/cancelled, got %v/%v", workers, br.Verdict, br.Reason)
		}

		ropts := opts
		ropts.Budget = Budget{MaxJoinRows: 5}
		br, err = BoundedRCDPCtx(context.Background(), q, d, cs.dm, cs.v, ropts)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if br.Verdict != VerdictUnknown || br.Reason != ReasonJoinRows {
			t.Fatalf("workers=%d: bounded RCDP want unknown/join-rows, got %v/%v", workers, br.Verdict, br.Reason)
		}
		if _, err := BoundedRCDP(q, d, cs.dm, cs.v, ropts); !errors.Is(err, query.ErrRowBudget) {
			t.Fatalf("workers=%d: bounded RCDP wrapper want ErrRowBudget, got %v", workers, err)
		}

		qr, err := BoundedRCQPCtx(cancelledCtx(), q, cs.dm, cs.v, schemas, 2, opts)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if qr.Verdict != VerdictUnknown || qr.Reason != ReasonCancelled {
			t.Fatalf("workers=%d: bounded RCQP want unknown/cancelled, got %v/%v", workers, qr.Verdict, qr.Reason)
		}
		qr, err = BoundedRCQPCtx(context.Background(), q, cs.dm, cs.v, schemas, 2, ropts)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if qr.Verdict != VerdictUnknown || qr.Reason != ReasonJoinRows {
			t.Fatalf("workers=%d: bounded RCQP want unknown/join-rows, got %v/%v", workers, qr.Verdict, qr.Reason)
		}
		if _, err := BoundedRCQP(q, cs.dm, cs.v, schemas, 2, ropts); !errors.Is(err, query.ErrRowBudget) {
			t.Fatalf("workers=%d: bounded RCQP wrapper want ErrRowBudget, got %v", workers, err)
		}
	}
}

func TestBudgetClamp(t *testing.T) {
	ceiling := Budget{Timeout: 2 * time.Second, MaxValuations: 100, MaxJoinRows: 1000, MaxTuples: 500}
	cases := []struct {
		name    string
		in, out Budget
	}{
		{"unset inherits ceiling", Budget{}, ceiling},
		{"over-ask clamped",
			Budget{Timeout: time.Hour, MaxValuations: 1 << 20, MaxJoinRows: 1 << 40, MaxTuples: 1 << 40},
			ceiling},
		{"stricter kept",
			Budget{Timeout: time.Second, MaxValuations: 10, MaxJoinRows: 50, MaxTuples: 5},
			Budget{Timeout: time.Second, MaxValuations: 10, MaxJoinRows: 50, MaxTuples: 5}},
		{"mixed per-dimension",
			Budget{Timeout: time.Hour, MaxJoinRows: 50},
			Budget{Timeout: 2 * time.Second, MaxValuations: 100, MaxJoinRows: 50, MaxTuples: 500}},
	}
	for _, tc := range cases {
		if got := tc.in.Clamp(ceiling); got != tc.out {
			t.Errorf("%s: Clamp = %+v, want %+v", tc.name, got, tc.out)
		}
	}
	// An unset ceiling passes everything through.
	free := Budget{Timeout: time.Hour, MaxValuations: 7}
	if got := free.Clamp(Budget{}); got != free {
		t.Errorf("zero ceiling: Clamp = %+v, want %+v", got, free)
	}
	// Partially set ceilings only clamp their own dimension.
	partial := Budget{MaxJoinRows: 10}
	got := Budget{Timeout: time.Minute}.Clamp(partial)
	want := Budget{Timeout: time.Minute, MaxJoinRows: 10}
	if got != want {
		t.Errorf("partial ceiling: Clamp = %+v, want %+v", got, want)
	}
}

// unsat3SAT returns an unsatisfiable 3-CNF over n ≥ 4 variables: all
// eight sign patterns over x1, x2, x3, plus implication clauses
// chaining x3 … xn so that every variable occurs.
func unsat3SAT(n int) *sat.CNF {
	phi := sat.NewCNF(n)
	for mask := 0; mask < 8; mask++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			cl[j] = sat.Literal(j + 1)
			if mask&(1<<j) != 0 {
				cl[j] = -cl[j]
			}
		}
		phi.Clauses = append(phi.Clauses, cl)
	}
	for i := 3; i < n; i++ {
		phi.Clauses = append(phi.Clauses, sat.Clause{sat.Literal(-i), sat.Literal(i + 1), sat.Literal(i + 1)})
	}
	return phi
}

// TestRCQPGuidanceHonorsCancellation pins that witness construction
// after a decided Yes runs under the check's governance: on the
// Theorem 4.5(1) reduction of an unsatisfiable 3SAT instance the
// verdict is Yes, and building the complete database enumerates the
// full 2^(2n) truth-value product — so a cancelled or 10 ms-deadline
// context must still return promptly, without error, and never with a
// wrong Status.
func TestRCQPGuidanceHonorsCancellation(t *testing.T) {
	phi := unsat3SAT(16)
	if _, ok := phi.Solve(); ok {
		t.Fatal("fixture formula is satisfiable")
	}
	inst, err := reductions.ThreeSATToRCQP(phi)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cancelled", "deadline"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		if name == "cancelled" {
			cancel()
		}
		start := time.Now()
		res, err := RCQPCtx(ctx, inst.Q, inst.Dm, inst.V, inst.Schemas)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: RCQPCtx took %v after its context ended", name, elapsed)
		}
		if res.Status == No {
			t.Fatalf("%s: unsatisfiable formula answered %v", name, res.Status)
		}
		if res.Status == Unknown && res.Reason == ReasonNone {
			t.Fatalf("%s: unknown without a governance reason", name)
		}
		t.Logf("%s: status %v reason %v witness %v after %v", name, res.Status, res.Reason, res.Witness != nil, time.Since(start))
	}
}
