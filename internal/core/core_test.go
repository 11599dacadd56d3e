package core

import (
	"context"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

func v(n string) query.Term { return query.Var(n) }
func c(s string) query.Term { return query.C(s) }

// suptSchema returns the Supt(eid, dept, cid) schema of Example 1.1.
func suptSchema() *relation.Schema {
	return relation.NewSchema("Supt",
		relation.Attr("eid"), relation.Attr("dept"), relation.Attr("cid"))
}

func emptyMaster() *relation.Database {
	return relation.NewDatabase(relation.NewSchema("Rm0", relation.Attr("x")))
}

// q2 is query Q₂ of Example 1.1: all customers supported by e0.
func q2() qlang.Query {
	return qlang.FromCQ(cq.New("Q2", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
		query.Eq(v("e"), c("e0"))))
}

// fdSupt builds the FD eid → dept, cid on Supt as CQ containment
// constraints (the set Φ₂ of Example 3.1).
func fdSupt() *cc.Set {
	fd := &cc.FD{Name: "fd2", Rel: "Supt", From: []int{0}, To: []int{1, 2}}
	return cc.NewSet(fd.ToCCs(3)...)
}

// fdDeptOnly builds the FD eid → dept (the φ₃ of Example 4.1).
func fdDeptOnly() *cc.Set {
	fd := &cc.FD{Name: "fd3", Rel: "Supt", From: []int{0}, To: []int{1}}
	return cc.NewSet(fd.ToCCs(3)...)
}

// TestExample31AtMostK reproduces Example 3.1, first part: with the CC
// φ₁ ("each employee supports at most k customers"), an instance D₁ in
// which Q₂ returns k distinct customers is complete — the k answers
// block any further addition — while fewer than k answers leave it
// incomplete.
func TestExample31AtMostK(t *testing.T) {
	k := 3
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, k))
	dm := emptyMaster()

	d1 := relation.NewDatabase(suptSchema())
	d1.MustAdd("Supt", "e0", "s", "c1")
	d1.MustAdd("Supt", "e0", "s", "c2")
	d1.MustAdd("Supt", "e0", "s", "c3")

	r, err := RCDPCtx(context.Background(), q2(), d1, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictComplete {
		t.Fatalf("D1 with k=%d answers must be complete; counterexample %v", k, r.Extension)
	}

	d2 := relation.NewDatabase(suptSchema())
	d2.MustAdd("Supt", "e0", "s", "c1")
	r, err = RCDPCtx(context.Background(), q2(), d2, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == VerdictComplete {
		t.Fatal("D with 1 < k answers must be incomplete")
	}
	// The witness must be a genuine counterexample.
	assertCounterexample(t, q2(), d2, dm, vset, r)
}

// TestExample31FD reproduces Example 3.1, second part: with the FD
// eid → dept, cid (as CCs Φ₂), an instance with no e0 tuple is not
// complete for Q₂ — one can add a tuple yielding a nonempty answer —
// while an instance containing an e0 tuple is complete.
func TestExample31FD(t *testing.T) {
	vset := fdSupt()
	dm := emptyMaster()

	d2 := relation.NewDatabase(suptSchema())
	d2.MustAdd("Supt", "e1", "s", "c1")
	r, err := RCDPCtx(context.Background(), q2(), d2, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == VerdictComplete {
		t.Fatal("instance without e0 tuples must be incomplete for Q2")
	}
	assertCounterexample(t, q2(), d2, dm, vset, r)

	dPlus := relation.NewDatabase(suptSchema())
	dPlus.MustAdd("Supt", "e0", "d0", "c0")
	r, err = RCDPCtx(context.Background(), q2(), dPlus, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictComplete {
		t.Fatalf("D+ = {(e0,d0,c0)} must be complete for Q2 under eid→dept,cid; got counterexample %v", r.Extension)
	}
}

// assertCounterexample verifies an incompleteness witness end-to-end:
// the extension is partially closed and genuinely changes the answer.
func assertCounterexample(t *testing.T, q qlang.Query, d, dm *relation.Database, vset *cc.Set, r *RCDPResult) {
	t.Helper()
	if r.Extension == nil {
		t.Fatal("incomplete result without extension witness")
	}
	union := d.Union(r.Extension)
	if ok, err := vset.Satisfied(union, dm); err != nil || !ok {
		t.Fatalf("witness extension not partially closed: %v %v", ok, err)
	}
	before, _ := q.Eval(d)
	after, _ := q.Eval(union)
	if len(after) <= len(before) {
		t.Fatalf("witness extension does not change the answer: %v vs %v", before, after)
	}
	if r.NewTuple == nil {
		t.Fatal("missing NewTuple")
	}
	found := false
	for _, tu := range after {
		if tu.Equal(r.NewTuple) {
			found = true
		}
	}
	for _, tu := range before {
		if tu.Equal(r.NewTuple) {
			t.Fatal("NewTuple already answered before extension")
		}
	}
	if !found {
		t.Fatalf("NewTuple %v not in extended answer", r.NewTuple)
	}
}

// TestExample41Q4 reproduces Example 4.1, first part: query Q₄
// (Supt tuples with eid = e0 and dept = d0) is relatively complete with
// respect to the FD eid → dept (φ₃): the database D⁻ = {(e0, d', c)}
// with d' ≠ d0 blocks every potential answer.
func TestExample41Q4(t *testing.T) {
	q4 := qlang.FromCQ(cq.New("Q4", []query.Term{v("e"), v("d"), v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
		query.Eq(v("e"), c("e0")), query.Eq(v("d"), c("d0"))))
	vset := fdDeptOnly()
	dm := emptyMaster()
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}

	// First verify the paper's D⁻ directly via RCDP.
	dMinus := relation.NewDatabase(suptSchema())
	dMinus.MustAdd("Supt", "e0", "dOther", "c")
	r, err := RCDPCtx(context.Background(), q4, dMinus, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictComplete {
		t.Fatalf("D- must be complete for Q4; counterexample %v", r.Extension)
	}

	// Then check that RCQP discovers a witness on its own.
	res, err := RCQPCtx(context.Background(), q4, dm, vset, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Yes {
		t.Fatalf("RCQP(Q4, φ3) = %v (%s), want yes", res.Status, res.Detail)
	}
	if res.Witness == nil {
		t.Fatal("expected a constructed witness")
	}
	rw, err := RCDPCtx(context.Background(), q4, res.Witness, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Verdict != VerdictComplete {
		t.Fatal("returned witness is not actually complete")
	}
}

// TestExample41Q2 reproduces Example 4.1, second part: Q₂ is relatively
// complete with respect to the FD eid → dept, cid (Φ₂) — witness
// D⁺ = {(e0, d0, c0)} — but not with respect to eid → dept alone
// (where our certificate search cannot find any witness; the exact
// answer is "no", which is beyond the search's refutation power, so it
// must report unknown rather than yes).
func TestExample41Q2(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dm := emptyMaster()

	res, err := RCQPCtx(context.Background(), q2(), dm, fdSupt(), schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Yes || res.Witness == nil {
		t.Fatalf("RCQP(Q2, Φ2) = %v, want yes with witness", res.Status)
	}
	rw, err := RCDPCtx(context.Background(), q2(), res.Witness, dm, fdSupt())
	if err != nil || rw.Verdict != VerdictComplete {
		t.Fatalf("witness not complete: %v %v", rw, err)
	}

	res, err = RCQPCtx(context.Background(), q2(), dm, fdDeptOnly(), schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Yes {
		t.Fatalf("RCQP(Q2, φ3) must not be yes (cid is unbounded): %+v", res)
	}
}

// TestRCQPEmptyV reproduces Proposition 4.2's V = ∅ case exactly: with
// no constraints, a query is relatively complete iff all its output
// variables range over finite domains (E1).
func TestRCQPEmptyV(t *testing.T) {
	finSchema := relation.NewSchema("F",
		relation.FinAttr("p", "0", "1"), relation.Attr("x"))
	schemas := map[string]*relation.Schema{"F": finSchema}
	dm := emptyMaster()

	finQ := qlang.FromCQ(cq.New("Qf", []query.Term{v("p")},
		[]query.RelAtom{query.Atom("F", v("p"), v("x"))}))
	res, err := RCQPCtx(context.Background(), finQ, dm, cc.NewSet(), schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Yes {
		t.Fatalf("finite-head query with V=∅: %+v", res)
	}

	infQ := qlang.FromCQ(cq.New("Qi", []query.Term{v("x")},
		[]query.RelAtom{query.Atom("F", v("p"), v("x"))}))
	res, err = RCQPCtx(context.Background(), infQ, dm, cc.NewSet(), schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != No {
		t.Fatalf("infinite-head query with V=∅ must be no: %+v", res)
	}
}

// TestRCQPINDs exercises the Proposition 4.3 path: with V an IND
// binding Supt.cid to master data, a query returning cids is relatively
// complete; dropping the IND makes it not relatively complete.
func TestRCQPINDs(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "c1")
	dm.MustAdd("DCust", "c2")

	qc := qlang.FromCQ(cq.New("Qc", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
		query.Eq(v("e"), c("e0"))))

	withIND := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))
	res, err := RCQPCtx(context.Background(), qc, dm, withIND, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Yes {
		t.Fatalf("cid-bounded query must be relatively complete: %+v", res)
	}
	if res.Witness != nil {
		rw, err := RCDPCtx(context.Background(), qc, res.Witness, dm, withIND)
		if err != nil || rw.Verdict != VerdictComplete {
			t.Fatalf("IND witness not complete: %+v %v", rw, err)
		}
	}

	// Query projecting the unbounded dept column is not relatively
	// complete.
	qd := qlang.FromCQ(cq.New("Qd", []query.Term{v("d")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))
	res, err = RCQPCtx(context.Background(), qd, dm, withIND, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != No {
		t.Fatalf("dept-projecting query must be no: %+v", res)
	}
}

// TestRCQPINDsBlockedDisjunct checks the "no valid valuation" escape of
// Proposition 4.3: an unbounded query whose every valuation violates V
// is still relatively complete (with the empty-ish database).
func TestRCQPINDsBlockedDisjunct(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dm := relation.NewDatabase(relation.NewSchema("DCust", relation.Attr("cid")))
	// π_{eid}(Supt) ⊆ π_cid(DCust) with empty DCust: no Supt tuple may
	// ever exist.
	vset := cc.NewSet(cc.NewIND("block", "Supt", []int{0}, 3, cc.Proj("DCust", 0)))
	res, err := RCQPCtx(context.Background(), q2(), dm, vset, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Yes {
		t.Fatalf("fully blocked query must be yes: %+v", res)
	}
}

// TestRCDPRejectsNonMonotone checks the Theorem 3.1 guard rails.
func TestRCDPRejectsNonMonotone(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	dm := emptyMaster()
	fpq := qlang.FromFP(datalogTC())
	if _, err := RCDPCtx(context.Background(), fpq, d, dm, cc.NewSet()); err == nil {
		t.Fatal("FP query must be rejected by RCDP")
	}
	if _, err := RCQPCtx(context.Background(), fpq, dm, cc.NewSet(), map[string]*relation.Schema{"Supt": suptSchema()}); err == nil {
		t.Fatal("FP query must be rejected by RCQP")
	}
}

// TestRCDPNotPartiallyClosed checks the precondition of RCDP.
func TestRCDPNotPartiallyClosed(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "a", "c1")
	d.MustAdd("Supt", "e0", "b", "c1") // violates eid→dept
	dm := emptyMaster()
	if _, err := RCDPCtx(context.Background(), q2(), d, dm, fdDeptOnly()); err == nil {
		t.Fatal("non-partially-closed D must be rejected")
	}
}

// TestMakeComplete extends an incomplete database to completeness and
// verifies the result (Section 2.3(2) guidance).
func TestMakeComplete(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	dm := emptyMaster()
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")

	done, rounds, err := MakeComplete(q2(), d, dm, vset, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("expected at least one extension round")
	}
	r, err := RCDPCtx(context.Background(), q2(), done, dm, vset)
	if err != nil || r.Verdict != VerdictComplete {
		t.Fatalf("MakeComplete result not complete: %v %v", r, err)
	}
	if !d.SubsetOf(done) {
		t.Fatal("MakeComplete must extend the original database")
	}
}

// TestRCDPUnsatisfiableQuery: an unsatisfiable query is trivially
// complete on any partially closed database.
func TestRCDPUnsatisfiableQuery(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	dm := emptyMaster()
	q := qlang.FromCQ(cq.New("Q", []query.Term{v("e")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
		query.Eq(v("e"), c("a")), query.Eq(v("e"), c("b"))))
	r, err := RCDPCtx(context.Background(), q, d, dm, cc.NewSet())
	if err != nil || r.Verdict != VerdictComplete {
		t.Fatalf("unsatisfiable query must be complete: %v %v", r, err)
	}
}

// TestRCDPUCQ checks per-disjunct counterexample search on a union
// query: the first disjunct is blocked by an at-most-1 constraint, the
// second stays open.
func TestRCDPUCQ(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("k1", "Supt", 3, []int{0}, 2, 1))
	dm := emptyMaster()
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")

	u := cq.Union("U",
		cq.New("U1", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e0"))),
		cq.New("U2", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e1"))),
	)
	r, err := RCDPCtx(context.Background(), qlang.FromUCQ(u), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == VerdictComplete {
		t.Fatal("second disjunct (e1) is open: must be incomplete")
	}
	if r.Disjunct != 1 {
		t.Fatalf("counterexample should come from disjunct 1, got %d", r.Disjunct)
	}
	assertCounterexample(t, qlang.FromUCQ(u), d, dm, vset, r)
}

// TestRCDPEFO exercises the ∃FO⁺ path through DNF expansion.
func TestRCDPEFO(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("k1", "Supt", 3, []int{0}, 2, 1))
	dm := emptyMaster()
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	d.MustAdd("Supt", "e1", "s", "c2")

	body := cq.Or(
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e0"))),
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e1"))),
	)
	q := qlang.FromEFO(cq.NewEFO("Qe", []query.Term{v("c")}, body))
	r, err := RCDPCtx(context.Background(), q, d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictComplete {
		t.Fatalf("both disjuncts are blocked at k=1: %v", r.Extension)
	}
}

// TestNaiveAgreesWithPruned: the ablation mode must compute the same
// verdicts.
func TestNaiveAgreesWithPruned(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	dm := emptyMaster()
	for _, tuples := range [][][3]string{
		{{"e0", "s", "c1"}},
		{{"e0", "s", "c1"}, {"e0", "s", "c2"}},
	} {
		d := relation.NewDatabase(suptSchema())
		for _, tu := range tuples {
			d.MustAdd("Supt", tu[0], tu[1], tu[2])
		}
		fast, err := RCDPCtx(context.Background(), q2(), d, dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := (&Checker{Naive: true}).RCDPCtx(context.Background(), q2(), d, dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Verdict != slow.Verdict {
			t.Fatalf("naive/pruned disagree on %v: %v vs %v", tuples, fast.Verdict, slow.Verdict)
		}
		if slow.Stats.Valuations < fast.Stats.Valuations {
			t.Fatalf("naive should visit at least as many valuations: %d < %d", slow.Stats.Valuations, fast.Stats.Valuations)
		}
	}
}

// TestBudget: the valuation budget aborts cleanly. The CC to master
// data makes the database complete, so the search must exhaust every
// candidate valuation and trip the one-valuation budget; each
// rejection reads the customer through the CC's head, so no nogood
// settles the search in one valuation (see headFixture).
func TestBudget(t *testing.T) {
	q, d, dm, vset := headFixture(5)
	r, err := (&Checker{Budget: Budget{MaxValuations: 1}}).RCDPCtx(context.Background(), q, d, dm, vset)
	if err != nil || r.Verdict != VerdictUnknown || r.Reason != ReasonValuations {
		t.Fatalf("want unknown/valuations, got %+v, %v", r, err)
	}
}
