package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// sameResult fails the test unless two RCDP results agree on the
// verdict, the reason and the witness.
func sameResult(t *testing.T, label string, got, want *RCDPResult) {
	t.Helper()
	if got.Verdict != want.Verdict || got.Reason != want.Reason || got.Disjunct != want.Disjunct ||
		!got.NewTuple.Equal(want.NewTuple) ||
		(got.Extension == nil) != (want.Extension == nil) ||
		(got.Extension != nil && !got.Extension.Equal(want.Extension)) {
		t.Fatalf("%s: got %v %v %v ext %v, want %v %v %v ext %v", label,
			got.Verdict, got.Reason, got.NewTuple, got.Extension,
			want.Verdict, want.Reason, want.NewTuple, want.Extension)
	}
}

// crmPrepared returns a CRM scenario, its constraints and
// the queries the handle tests check over it: Q0 is incomplete for
// every area code, Q1 and Q2 are complete.
func crmPrepared() (*mdm.Scenario, *cc.Set, []qlang.Query) {
	cfg := mdm.DefaultConfig()
	cfg.Completeness = 0.5
	cfg.SupportPerEmployee = cfg.MaxSupport // Q2 is complete for employees at the φ₁ bound
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport), mdm.ManageIND())
	qs := []qlang.Query{mdm.Q0("908"), mdm.Q0("973"), mdm.Q0("201"), mdm.Q0("609"), mdm.Q2("e00"), mdm.Q2("e01"), mdm.Q1("e00", "908")}
	return s, vset, qs
}

// TestPreparedMatchesOneShot: every query checked on one handle answers
// like a one-shot RCDPCtx check, and the checks after the first do not
// charge the partial-closure join rows again.
func TestPreparedMatchesOneShot(t *testing.T) {
	s, vset, qs := crmPrepared()
	ck := &Checker{Workers: 1}
	p := Prepare(s.D, s.Dm, vset)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a cancellable context makes the checks governed, so they count rows
	for i, q := range qs {
		want, err := ck.RCDPCtx(ctx, q, s.D, s.Dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.RCDPPreparedCtx(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, q.String(), got, want)
		if got.Stats.Valuations != want.Stats.Valuations {
			t.Fatalf("%s: %d valuations on the handle, %d one-shot", q, got.Stats.Valuations, want.Stats.Valuations)
		}
		if i > 0 && got.Stats.JoinRows >= want.Stats.JoinRows {
			t.Fatalf("%s: later check on the handle charged %d join rows, one-shot %d",
				q, got.Stats.JoinRows, want.Stats.JoinRows)
		}
	}
}

// TestPreparedDegreeMatchesOneShot: a degree measured on the handle an
// RCDP check already used — the serving layer's degree-requesting
// /v1/rcdp — equals a one-shot DegreeCtx, exact and under a valuation
// cap, and does not charge the partial-closure join rows again.
func TestPreparedDegreeMatchesOneShot(t *testing.T) {
	s, vset, qs := crmPrepared()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // governed checks count join rows
	exact := map[bool]int{}
	for _, budget := range []Budget{{}, {MaxValuations: 3}} {
		ck := &Checker{Workers: 1, Budget: budget}
		for _, q := range qs {
			p := Prepare(s.D, s.Dm, vset)
			if _, err := ck.RCDPPreparedCtx(ctx, q, p); err != nil {
				t.Fatal(err)
			}
			got, err := ck.DegreePreparedCtx(ctx, q, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ck.DegreeCtx(ctx, q, s.D, s.Dm, vset)
			if err != nil {
				t.Fatal(err)
			}
			if got.Verdict != want.Verdict || got.Degree != want.Degree || got.Lo != want.Lo || got.Hi != want.Hi ||
				got.Exact != want.Exact || got.Candidates != want.Candidates ||
				got.Counterexamples != want.Counterexamples || got.Reason != want.Reason ||
				got.Stats.Valuations != want.Stats.Valuations {
				t.Fatalf("%s, budget %+v: handle %+v, one-shot %+v", q, budget, got, want)
			}
			if got.Stats.JoinRows >= want.Stats.JoinRows {
				t.Fatalf("%s, budget %+v: degree on the used handle charged %d join rows, one-shot %d",
					q, budget, got.Stats.JoinRows, want.Stats.JoinRows)
			}
			exact[got.Exact]++
		}
	}
	if exact[true] == 0 || exact[false] == 0 {
		t.Fatalf("exact/sampled degrees: %v; want both", exact)
	}
}

// TestPreparedKeepsNotClosedError: a D that is not partially closed
// gives every check on the handle the same error.
func TestPreparedKeepsNotClosedError(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "a", "c1")
	d.MustAdd("Supt", "e0", "b", "c1") // violates eid→dept
	p := Prepare(d, emptyMaster(), fdDeptOnly())
	ck := &Checker{Workers: 1}
	_, err1 := ck.RCDPPreparedCtx(context.Background(), q2(), p)
	_, err2 := ck.RCDPPreparedCtx(context.Background(), q2(), p)
	if err1 == nil || !errors.Is(err2, err1) {
		t.Fatalf("want one kept error, got %v then %v", err1, err2)
	}
	if _, err := ck.RCDPCtx(context.Background(), q2(), d, emptyMaster(), fdDeptOnly()); err == nil || err.Error() != err1.Error() {
		t.Fatalf("one-shot error %v, handle error %v", err, err1)
	}
}

// TestPreparedRetriesAfterGovernanceStop: a first check whose join-row
// budget trips during the setup answers Unknown and leaves no setup
// behind; a second, unbudgeted check on the handle then decides.
func TestPreparedRetriesAfterGovernanceStop(t *testing.T) {
	s, vset, qs := crmPrepared()
	p := Prepare(s.D, s.Dm, vset)
	tight := &Checker{Workers: 1, Budget: Budget{MaxJoinRows: 1}}
	r, err := tight.RCDPPreparedCtx(context.Background(), qs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictUnknown || r.Reason != ReasonJoinRows {
		t.Fatalf("tight budget: got %v %v, want unknown join-rows", r.Verdict, r.Reason)
	}
	if p.st != nil {
		t.Fatal("a setup stopped by its budget must not be kept")
	}
	ck := &Checker{Workers: 1}
	got, err := ck.RCDPPreparedCtx(context.Background(), qs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ck.RCDPCtx(context.Background(), qs[0], s.D, s.Dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict == VerdictUnknown {
		t.Fatal("unbudgeted check after the stop must decide")
	}
	sameResult(t, "after stop", got, want)
}

// TestPreparedFollowsMutation: mutating D between two checks on one
// handle redoes the setup, so the second check answers like a fresh
// one-shot check. Manage is bounded above by an IND into ManageM and
// below by the reverse constraint π(ManageM) ⊆ Manage: D is not
// partially closed until the missing master edge is added, and then it
// is complete.
func TestPreparedFollowsMutation(t *testing.T) {
	manage := relation.NewSchema("Manage", relation.Attr("a"), relation.Attr("b"))
	managem := relation.NewSchema("ManageM", relation.Attr("a"), relation.Attr("b"))
	dm := relation.NewDatabase(managem)
	dm.MustAdd("ManageM", "e1", "e0")
	dm.MustAdd("ManageM", "e2", "e1")
	revQ := cq.New("q", []query.Term{v("x"), v("y")},
		[]query.RelAtom{query.Atom("Manage", v("x"), v("y"))})
	vset := cc.NewSet(
		cc.NewIND("up", "Manage", []int{0, 1}, 2, cc.Proj("ManageM", 0, 1)),
		cc.ReverseFromCQ("down", cc.Proj("ManageM", 0, 1), revQ),
	)
	d := relation.NewDatabase(manage)
	d.MustAdd("Manage", "e1", "e0")
	q := qlang.FromCQ(cq.New("Q", []query.Term{v("m")},
		[]query.RelAtom{query.Atom("Manage", v("m"), c("e0"))}))

	ck := &Checker{Workers: 1}
	p := Prepare(d, dm, vset)
	if _, err := ck.RCDPPreparedCtx(context.Background(), q, p); err == nil {
		t.Fatal("D below the master lower bound must be rejected")
	}
	if err := d.Instance("Manage").Add(relation.T("e2", "e1")); err != nil {
		t.Fatal(err)
	}
	got, err := ck.RCDPPreparedCtx(context.Background(), q, p)
	if err != nil {
		t.Fatalf("check after the mutation: %v", err)
	}
	want, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if want.Verdict != VerdictComplete {
		t.Fatalf("fresh check: %v, want complete", want.Verdict)
	}
	sameResult(t, "after mutation", got, want)
}

// TestPreparedConcurrentChecks: goroutines checking different queries
// on one handle answer like one-shot checks (run under make race).
func TestPreparedConcurrentChecks(t *testing.T) {
	s, vset, qs := crmPrepared()
	ck := &Checker{Workers: 2}
	want := make([]*RCDPResult, len(qs))
	for i, q := range qs {
		r, err := ck.RCDPCtx(context.Background(), q, s.D, s.Dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	p := Prepare(s.D, s.Dm, vset)
	got := make([]*RCDPResult, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ck.RCDPPreparedCtx(context.Background(), q, p)
		}()
	}
	wg.Wait()
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", q, errs[i])
		}
		sameResult(t, q.String(), got[i], want[i])
	}
}
