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

func TestUniverse(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	dm := emptyMaster()
	dm.MustAdd("Rm0", "m1")
	u := NewUniverse(d, dm, q2(), cc.NewSet(), 3)
	if len(u.Fresh) != 3 {
		t.Fatalf("fresh pool: %v", u.Fresh)
	}
	for _, f := range u.Fresh {
		if !u.IsFresh(f) {
			t.Fatal("IsFresh wrong")
		}
	}
	// Constants: e0 (query), e0/s/c1 (D), m1 (Dm).
	want := map[relation.Value]bool{"e0": true, "s": true, "c1": true, "m1": true}
	if len(u.Consts) != len(want) {
		t.Fatalf("consts: %v", u.Consts)
	}
	for _, c := range u.Consts {
		if !want[c] {
			t.Fatalf("unexpected constant %q", c)
		}
	}
	// AdomFor: finite domains are returned verbatim; infinite domains
	// get constants plus the fresh pool.
	fin := relation.FiniteDomain("0", "1")
	if got := u.AdomFor(fin); len(got) != 2 {
		t.Fatalf("finite adom: %v", got)
	}
	if got := u.AdomFor(relation.InfiniteDomain()); len(got) != len(u.Consts)+3 {
		t.Fatalf("infinite adom: %v", got)
	}
}

func TestStatusString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Fatal("Status String wrong")
	}
}

func TestCompleteDatabaseINDs(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "c1")
	dm.MustAdd("DCust", "c2")
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))
	qc := qlang.FromCQ(cq.New("Qc", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))

	w, _, err := completeDatabaseINDs(qc, dm, vset, schemas, 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("witness not constructed")
	}
	// The witness must answer both master cids and be complete.
	ans, _ := qc.Eval(w)
	if len(ans) != 2 {
		t.Fatalf("witness answers %v", ans)
	}
	r, err := RCDPCtx(context.Background(), qc, w, dm, vset)
	if err != nil || r.Verdict != VerdictComplete {
		t.Fatalf("witness incomplete: %v %v", r, err)
	}
	// Cap smaller than the answer space: no witness, no error.
	w2, _, err := completeDatabaseINDs(qc, dm, vset, schemas, 1, 0, nil)
	if err != nil || w2 != nil {
		t.Fatalf("cap should yield nil witness: %v %v", w2, err)
	}
	// Non-IND constraints are rejected.
	if _, _, err := completeDatabaseINDs(qc, dm, cc.NewSet(cc.AtMostK("k", "Supt", 3, []int{0}, 2, 1)), schemas, 10, 0, nil); err == nil {
		t.Fatal("non-IND set accepted")
	}
}

func TestMakeCompleteDiverges(t *testing.T) {
	// Q2 with no constraints has an unbounded answer space: MakeComplete
	// must give up after its round cap.
	d := relation.NewDatabase(suptSchema())
	dm := emptyMaster()
	if _, _, err := MakeComplete(q2(), d, dm, cc.NewSet(), 5); err == nil {
		t.Fatal("divergent completion must error out")
	}
}

func TestRCQPwithUCQandEFO(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "c1")
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))

	u := cq.Union("U",
		cq.New("u1", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e0"))),
		cq.New("u2", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e1"))),
	)
	res, err := RCQPCtx(context.Background(), qlang.FromUCQ(u), dm, vset, schemas)
	if err != nil || res.Status != Yes {
		t.Fatalf("UCQ over bounded cid: %v %v", res, err)
	}

	body := cq.Or(
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e0"))),
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e1"))),
	)
	efoq := qlang.FromEFO(cq.NewEFO("Qe", []query.Term{v("c")}, body))
	res, err = RCQPCtx(context.Background(), efoq, dm, vset, schemas)
	if err != nil || res.Status != Yes {
		t.Fatalf("∃FO⁺ over bounded cid: %v %v", res, err)
	}

	// A disjunct projecting the unbounded dept makes it no.
	bad := cq.Union("B",
		u.Disjuncts[0],
		cq.New("u3", []query.Term{v("d")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}),
	)
	res, err = RCQPCtx(context.Background(), qlang.FromUCQ(bad), dm, vset, schemas)
	if err != nil || res.Status != No {
		t.Fatalf("unbounded disjunct must be no: %v %v", res, err)
	}
}

func TestBoundedRCDPPreconditions(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "a", "c1")
	d.MustAdd("Supt", "e0", "b", "c1")
	dm := emptyMaster()
	fd := &cc.FD{Name: "fd", Rel: "Supt", From: []int{0}, To: []int{1}}
	vset := cc.NewSet(fd.ToCCs(3)...)
	if _, err := BoundedRCDPCtx(context.Background(), q2(), d, dm, vset, BoundedOpts{}); err == nil {
		t.Fatal("non-partially-closed D must be rejected")
	}
	// Pool explosion guard.
	wide := relation.NewSchema("W",
		relation.Attr("a"), relation.Attr("b"), relation.Attr("c"),
		relation.Attr("d"), relation.Attr("e"), relation.Attr("f"))
	dw := relation.NewDatabase(wide)
	for i := 0; i < 20; i++ {
		dw.MustAdd("W", "a", "b", "c", "d", "e", string(rune('a'+i)))
	}
	qw := qlang.FromCQ(cq.New("Q", []query.Term{v("x")},
		[]query.RelAtom{query.Atom("W", v("x"), v("y"), v("z"), v("u"), v("w"), v("t"))}))
	if _, err := BoundedRCDPCtx(context.Background(), qw, dw, dm, cc.NewSet(), BoundedOpts{MaxPool: 1000}); err == nil {
		t.Fatal("pool explosion must be reported")
	}
}

// TestBooleanAnsweredHead pins both deciders on a Boolean query Q(D)
// already answers: no extension can add an answer, so D is complete.
// The bounded search probes the empty answer tuple in Q(D); the exact
// search tests the variable-free head once and walks nothing.
func TestBooleanAnsweredHead(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	dm := emptyMaster()
	qb := qlang.FromCQ(cq.New("QB", nil, []query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))
	br, err := BoundedRCDPCtx(context.Background(), qb, d, dm, cc.NewSet(), BoundedOpts{MaxAdd: 1, FreshValues: 2, Workers: 1})
	if err != nil || br.Verdict != VerdictComplete {
		t.Fatalf("bounded: want complete, got %+v, %v", br, err)
	}
	r, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), qb, d, dm, cc.NewSet())
	if err != nil || r.Verdict != VerdictComplete || r.Stats.Valuations != 0 {
		t.Fatalf("exact: want complete after 0 valuations, got %+v, %v", r, err)
	}
}

// TestRCDPMonotonicityProperty: a randomized invariant — whenever RCDP
// reports complete, a random legal single-tuple extension must not
// change the answer (spot-checking the definition directly).
func TestRCDPMonotonicityProperty(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	dm := emptyMaster()
	vals := []string{"e0", "x", "c1", "c2", "c3"}
	for seed := 0; seed < 40; seed++ {
		d := relation.NewDatabase(suptSchema())
		n := seed % 4
		for i := 0; i < n; i++ {
			d.MustAdd("Supt", vals[(seed+i)%3], "s", vals[2+(seed+i)%3])
		}
		if ok, _ := vset.Satisfied(d, dm); !ok {
			continue
		}
		r, err := RCDPCtx(context.Background(), q2(), d, dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != VerdictComplete {
			continue
		}
		base, _ := q2().Eval(d)
		// Try every single-tuple extension over the value pool.
		for _, a := range vals {
			for _, b := range vals {
				for _, cv := range vals {
					ext := d.Clone()
					ext.MustAdd("Supt", a, b, cv)
					if ok, _ := vset.Satisfied(ext, dm); !ok {
						continue
					}
					after, _ := q2().Eval(ext)
					if len(after) != len(base) {
						t.Fatalf("seed %d: complete D changed by legal extension (%s,%s,%s)", seed, a, b, cv)
					}
				}
			}
		}
	}
}

// TestInertPositions sanity-checks the inert-position analysis on the
// at-most-k constraint: the employee and customer columns are
// constrained, the department column is inert.
func TestInertPositions(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	constrained := inertPositions(vset)
	if !constrained["Supt"][0] {
		t.Fatal("employee column must be constrained (join)")
	}
	if !constrained["Supt"][2] {
		t.Fatal("customer column must be constrained (diseqs + head)")
	}
	if constrained["Supt"][1] {
		t.Fatal("department column must be inert")
	}
}

// TestRelevantValues checks the linked-position value computation on
// the CRM φ0 constraint: the customer column's group picks up the
// master cid feed.
func TestRelevantValues(t *testing.T) {
	cust := relation.NewSchema("Cust",
		relation.Attr("cid"), relation.Attr("name"), relation.Attr("cc"),
		relation.Attr("ac"), relation.Attr("phn"))
	supt := suptSchema()
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "m1")
	d := relation.NewDatabase(cust, supt)
	d.MustAdd("Supt", "e9", "s", "d9")

	q := cq.New("phi", []query.Term{v("c")},
		[]query.RelAtom{
			query.Atom("Cust", v("c"), v("n"), v("cc"), v("a"), v("p")),
			query.Atom("Supt", v("e"), v("d"), v("c")),
		},
		query.Eq(v("cc"), c("01")))
	vset := cc.NewSet(cc.FromCQ("phi", q, cc.Proj("DCust", 0)))

	rv := computeRelevantValues(vset, d, dm).forQuery(qlang.FromCQ(q))
	cands := relation.Shared().Values(rv.candidatesFor([]varPosition{{Rel: "Supt", Col: 2}}))
	has := func(val relation.Value) bool {
		for _, x := range cands {
			if x == val {
				return true
			}
		}
		return false
	}
	if !has("m1") {
		t.Fatalf("master feed missing: %v", cands)
	}
	if !has("d9") {
		t.Fatalf("linked database value missing: %v", cands)
	}
	if has("e9") {
		t.Fatalf("unlinked column value leaked in: %v", cands)
	}
}

// TestRCDPWithReverseConstraint exercises the Section 5 extension: with
// Manage bounded above by an IND into ManageM and below by the reverse
// constraint π(ManageM) ⊆ Manage, partial closure pins Manage to
// exactly the master edges, and the k-hop query over it is complete.
func TestRCDPWithReverseConstraint(t *testing.T) {
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

	// A database missing a master edge is not partially closed at all.
	partial := relation.NewDatabase(manage)
	partial.MustAdd("Manage", "e1", "e0")
	q := qlang.FromCQ(cq.New("Q", []query.Term{v("m")},
		[]query.RelAtom{query.Atom("Manage", v("m"), c("e0"))}))
	if _, err := RCDPCtx(context.Background(), q, partial, dm, vset); err == nil {
		t.Fatal("database below the master lower bound must be rejected")
	}

	// The exactly-pinned database is complete.
	full := partial.Clone()
	full.MustAdd("Manage", "e2", "e1")
	r, err := RCDPCtx(context.Background(), q, full, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictComplete {
		t.Fatalf("pinned Manage must be complete; ext %v", r.Extension)
	}
}

// TestCompleteDatabaseINDsBudget: the witness construction charges
// every complete valuation to its budget and, when the budget runs
// out, stops with ErrBudgetExceeded and reports exactly the budget as
// inspected — the refused valuation is not counted.
func TestCompleteDatabaseINDsBudget(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dm := relation.NewDatabase(relation.NewSchema("DCust", relation.Attr("cid")))
	for _, c := range []string{"c1", "c2", "c3", "c4", "c5"} {
		dm.MustAdd("DCust", c)
	}
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))
	qc := qlang.FromCQ(cq.New("Qc", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))

	for _, tc := range []struct {
		budget, inspected int
		err               error
	}{
		{0, 5, nil},
		{3, 3, ErrBudgetExceeded},
		{5, 5, nil},
	} {
		w, n, err := completeDatabaseINDs(qc, dm, vset, schemas, 100, tc.budget, nil)
		if err != tc.err || n != tc.inspected || (w == nil) != (tc.err != nil) {
			t.Errorf("budget=%d: got witness=%v inspected=%d err=%v, want inspected=%d err=%v",
				tc.budget, w != nil, n, err, tc.inspected, tc.err)
		}
	}
}

// TestFragmentPoolCapIsPrefix: a certificate-search fragment pool
// capped at MaxPool holds exactly the first MaxPool fragments of the
// uncapped pool, in order — stopping the enumeration once the pool is
// full loses nothing the cap would have kept.
func TestFragmentPoolCapIsPrefix(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	for _, cs := range microConstraintSets() {
		if cs.v.AllINDs() {
			continue
		}
		for _, q := range microQueries() {
			full, _, err := QPChecker{MaxPool: 1 << 20}.buildFragmentPool(q, cs.dm, cs.v, schemas, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, len(full) / 2, len(full) - 1} {
				if n < 1 || n >= len(full) {
					continue
				}
				got, _, err := QPChecker{MaxPool: n}.buildFragmentPool(q, cs.dm, cs.v, schemas, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%s/%v: MaxPool %d gave %d fragments", cs.name, q, n, len(got))
				}
				for i := range got {
					if got[i].String() != full[i].String() {
						t.Fatalf("%s/%v: MaxPool %d: fragment %d is %s, uncapped pool has %s", cs.name, q, n, i, got[i], full[i])
					}
				}
			}
		}
	}
}
