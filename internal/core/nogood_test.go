package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// The nogood differential test: the RCDP walk skips the valuations its
// nogoods refute (nogood.go), and its reference walks every valuation
// of every disjunct in order with the same witness test — the inOrder
// walk that degree counting runs — so the two must find the same first
// witness, and every valuation the walk skipped must fail that test.

// ngSchemas is a micro CRM: customers with a country and an area code,
// support rows, and master (cid, ac) pairs.
func ngSchemas() (cust, supt, dcust *relation.Schema) {
	return relation.NewSchema("Cust", relation.Attr("cid"), relation.Attr("cc"), relation.Attr("ac")),
		relation.NewSchema("Supt", relation.Attr("eid"), relation.Attr("dept"), relation.Attr("cid")),
		relation.NewSchema("DCust", relation.Attr("cid"), relation.Attr("ac"))
}

// ngConstraints is the constraint pool: φ0's join plus selection
// bounded by master data, φ1's at-most-k, FDs, denials (one with an
// inequality) and an IND.
func ngConstraints() []*cc.Constraint {
	phi0 := cc.FromCQ("phi0", cq.New("phi0", []query.Term{v("c"), v("a")},
		[]query.RelAtom{query.Atom("Cust", v("c"), v("k"), v("a")), query.Atom("Supt", v("e"), v("d"), v("c"))},
		query.Eq(v("k"), c("01"))), cc.Proj("DCust", 0, 1))
	noForeign := (&cc.Denial{Name: "noForeign", Atoms: []query.RelAtom{
		query.Atom("Supt", v("e"), v("d"), v("c")), query.Atom("Cust", v("c"), v("k"), v("a"))},
		Conds: []query.EqAtom{query.Eq(v("k"), c("02"))}}).ToCC()
	oneSupporter := (&cc.Denial{Name: "oneSupporter", Atoms: []query.RelAtom{
		query.Atom("Supt", v("e"), v("d"), v("c")), query.Atom("Supt", v("e2"), v("d2"), v("c"))},
		Conds: []query.EqAtom{query.Neq(v("e"), v("e2"))}}).ToCC()
	out := []*cc.Constraint{
		phi0,
		cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 1),
		cc.AtMostK("phi1k2", "Supt", 3, []int{0}, 2, 2),
		noForeign,
		oneSupporter,
		cc.NewIND("custIND", "Cust", []int{0}, 3, cc.Proj("DCust", 0)),
	}
	out = append(out, (&cc.FD{Name: "eidDept", Rel: "Supt", From: []int{0}, To: []int{1}}).ToCCs(3)...)
	out = append(out, (&cc.FD{Name: "cidAC", Rel: "Cust", From: []int{0}, To: []int{2}}).ToCCs(3)...)
	return out
}

// ngQueries is the query pool: φ0-shaped and φ1-shaped CQs, a join
// with an inequality, and a UCQ.
func ngQueries() []qlang.Query {
	supt := func(e, d, cid query.Term) query.RelAtom { return query.Atom("Supt", e, d, cid) }
	cust := func(cid, k, a query.Term) query.RelAtom { return query.Atom("Cust", cid, k, a) }
	return []qlang.Query{
		qlang.FromCQ(cq.New("Q0", []query.Term{v("c")},
			[]query.RelAtom{cust(v("c"), v("k"), v("a")), supt(v("e"), v("d"), v("c"))},
			query.Eq(v("k"), c("01")), query.Eq(v("a"), c("908")))),
		qlang.FromCQ(cq.New("Q2", []query.Term{v("c")},
			[]query.RelAtom{supt(v("e"), v("d"), v("c"))}, query.Eq(v("e"), c("e0")))),
		qlang.FromCQ(cq.New("Qec", []query.Term{v("e"), v("c")},
			[]query.RelAtom{supt(v("e"), v("d"), v("c"))})),
		qlang.FromCQ(cq.New("Qca", []query.Term{v("c"), v("a")},
			[]query.RelAtom{cust(v("c"), v("k"), v("a"))}, query.Eq(v("k"), c("01")))),
		qlang.FromCQ(cq.New("Qpair", []query.Term{v("e")},
			[]query.RelAtom{supt(v("e"), v("d"), v("c")), supt(v("e"), v("d2"), v("c2"))},
			query.Neq(v("c"), v("c2")))),
		qlang.FromUCQ(cq.Union("U",
			cq.New("Ua", []query.Term{v("c")}, []query.RelAtom{supt(v("e"), v("d"), v("c"))}, query.Eq(v("e"), c("e0"))),
			cq.New("Ub", []query.Term{v("c")}, []query.RelAtom{cust(v("c"), v("k"), v("a"))}, query.Eq(v("k"), c("02"))),
		)),
	}
}

// randomNogoodCase draws a database, master data and a constraint set
// of one to three pool constraints.
func randomNogoodCase(rng *rand.Rand, pool []*cc.Constraint) (d, dm *relation.Database, v *cc.Set) {
	custS, suptS, dcustS := ngSchemas()
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	d = relation.NewDatabase(custS, suptS)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d.MustAdd("Cust", pick("c1", "c2", "c3"), pick("01", "02"), pick("908", "973"))
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		d.MustAdd("Supt", pick("e0", "e1"), pick("s", "t"), pick("c1", "c2", "c3"))
	}
	dm = relation.NewDatabase(dcustS)
	for _, cid := range []string{"c1", "c2", "c3", "c4"} {
		for _, ac := range []string{"908", "973"} {
			if rng.Intn(2) == 0 {
				dm.MustAdd("DCust", cid, ac)
			}
		}
	}
	v = cc.NewSet()
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		v.Add(pool[rng.Intn(len(pool))])
	}
	return d, dm, v
}

// referenceRCDP walks every valuation of every disjunct in order with
// the witness test and returns the first counterexample as RCDPCtx
// reports it (a complete verdict when there is none), together with
// each walked disjunct's valuations up to that witness.
func referenceRCDP(t *testing.T, prep *rcdpPrep) (*RCDPResult, [][][]int32) {
	t.Helper()
	wc := newWitnessChecker(prep, nil, false)
	walked := make([][][]int32, len(prep.searches))
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		claim, _, err := search.inOrder(0, func(_ *searchWorker, slots []int32) (any, error) {
			walked[di] = append(walked[di], append([]int32(nil), slots...))
			r, err := wc.witness(di, slots)
			if err != nil || r == nil {
				return nil, err
			}
			return r, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if claim != nil {
			return claim.(*RCDPResult), walked[:di+1]
		}
	}
	return &RCDPResult{Verdict: VerdictComplete}, walked
}

// nogoodWalk runs the RCDP walk of every disjunct in key order, as a
// Workers=1 check does, and returns the valuations it tested and the
// nogood jumps it took.
func nogoodWalk(prep *rcdpPrep) (visited map[string]bool, jumps int) {
	visited = make(map[string]bool)
	checkers := &witnessPool{build: func() *witnessChecker { return newWitnessChecker(prep, nil, true) }}
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		ctl, bud := newRaceCtl(), newBudgetCtl(0)
		visit := rcdpVisit(checkers, di)
		for _, task := range search.branchTasks(nil, ctl, bud, di, prep.answers, func(w *searchWorker, slots []int32) (any, error) {
			visited[valuationKey(di, slots)] = true
			return visit(w, slots)
		}) {
			task()
		}
		jumps += bud.nogoodJumps()
		if claim, _, _ := ctl.result(); claim != nil {
			break
		}
	}
	return visited, jumps
}

func valuationKey(di int, slots []int32) string { return fmt.Sprint(di, slots) }

// TestNogoodMatchesFullWalk is the randomized differential test of the
// nogoods: at Workers 1 and 2 the check reports the verdict, witness,
// Disjunct and Valuation of the reference walk, and every valuation
// the Workers=1 walk skipped — by a nogood or at an answered head —
// fails the witness test.
func TestNogoodMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := ngConstraints()
	queries := ngQueries()
	trials, skipped, jumps, incomplete := 0, 0, 0, 0
	for trial := 0; trial < 3000 && trials < 1000; trial++ {
		d, dm, vset := randomNogoodCase(rng, pool)
		if ok, err := vset.Satisfied(d, dm); err != nil || !ok {
			continue // not partially closed
		}
		q := queries[rng.Intn(len(queries))]
		trials++
		p := Prepare(d, dm, vset)
		prep, err := (&Checker{}).prepareRCDP(q, p, nil)
		if err != nil || prep == nil {
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		want, walked := referenceRCDP(t, prep)
		if want.Verdict == VerdictIncomplete {
			incomplete++
		}
		for _, workers := range []int{1, 2} {
			got, err := (&Checker{Workers: workers}).RCDPPreparedCtx(context.Background(), q, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRCDP(got, want) || !reflect.DeepEqual(got.Valuation, want.Valuation) {
				t.Fatalf("trial %d (%s, %v) workers=%d: got %v %v disjunct %d %v, reference %v %v disjunct %d %v\nD:\n%v",
					trial, q, vset, workers, got.Verdict, got.Extension, got.Disjunct, got.Valuation,
					want.Verdict, want.Extension, want.Disjunct, want.Valuation, d)
			}
		}
		visited, j := nogoodWalk(prep)
		jumps += j
		wc := newWitnessChecker(prep, nil, false)
		for di, vals := range walked {
			for i, slots := range vals {
				if want.Verdict == VerdictIncomplete && di == want.Disjunct && i == len(vals)-1 {
					break // the witness itself
				}
				if visited[valuationKey(di, slots)] {
					continue
				}
				skipped++
				if ok, err := wc.test(di, slots); err != nil || ok {
					t.Fatalf("trial %d (%s, %v): skipped valuation %v of disjunct %d is a counterexample\nD:\n%v",
						trial, q, vset, prep.searches[di].binding(slots), di, d)
				}
			}
		}
	}
	t.Logf("%d trials (%d incomplete), %d nogood jumps, %d valuations skipped", trials, incomplete, jumps, skipped)
	if trials < 500 || trials-incomplete < 50 || jumps < 200 {
		t.Fatalf("weak draw: %d trials, %d incomplete, %d nogood jumps", trials, incomplete, jumps)
	}
}
