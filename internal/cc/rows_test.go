package cc

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestDeltaRowsMatchFullRecheck is the randomized differential test of
// the row-based witness test: on seeded instances (D, Dm, V) with
// (D, Dm) ⊨ V, a prepared DeltaChecker over the id rows that
// SlotTemplates.Ground builds from a slot array must agree with full
// re-evaluation of V over D ∪ μ(T), where μ(T) is built by
// Tableau.Apply from the same valuation. The valuations are drawn so
// that the instances cover templates grounding to one tuple, Δ tuples
// already in D, constant template arguments and reverse constraints;
// a value outside a finite domain must fail Ground with exactly the
// error Tableau.Apply (Database.Add) reports.
func TestDeltaRowsMatchFullRecheck(t *testing.T) {
	rSchema := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	sSchema := relation.NewSchema("S", relation.Attr("a"), relation.FinAttr("k", "x", "y"))
	mSchema := relation.NewSchema("M", relation.Attr("a"), relation.Attr("b"))
	schemas := map[string]*relation.Schema{"R": rSchema, "S": sSchema}
	vals := []string{"v1", "v2", "v3", "v4"}
	dict := relation.Shared()

	// The candidate constraints: an IND, a join with a constant and an
	// inequality, a denial (⊆ ∅), a self-join and a reverse constraint.
	pool := []*Constraint{
		NewIND("ind", "R", []int{0}, 2, Proj("M", 0)),
		FromCQ("sel", cq.New("sel", []query.Term{v("a"), v("c")},
			[]query.RelAtom{query.Atom("R", v("a"), v("b")), query.Atom("S", v("b"), c("x")), query.Atom("R", v("b"), v("c"))},
			query.Neq(v("a"), v("c"))), Proj("M", 0, 1)),
		FromCQ("deny", cq.New("deny", nil,
			[]query.RelAtom{query.Atom("R", v("a"), v("a")), query.Atom("S", v("a"), c("y"))}), EmptySet()),
		FromCQ("self", cq.New("self", []query.Term{v("b")},
			[]query.RelAtom{query.Atom("R", v("a"), v("b")), query.Atom("R", v("b"), c("v2"))}), Proj("M", 1)),
		ReverseFromCQ("rev", Proj("M", 0), cq.New("rev", []query.Term{v("a")},
			[]query.RelAtom{query.Atom("S", v("a"), v("k"))})),
	}
	// The tableau whose instantiations are the deltas: two R templates
	// (which can ground to one tuple), a constant argument and a
	// finite-domain column.
	tq := cq.New("T", []query.Term{v("A")}, []query.RelAtom{
		query.Atom("R", v("A"), v("B")),
		query.Atom("R", v("C"), v("D")),
		query.Atom("S", v("B"), v("K")),
		query.Atom("R", v("D"), c("v2")),
	})
	tab, err := cq.BuildTableau(tq)
	if err != nil {
		t.Fatal(err)
	}
	slotOf := make(map[string]int, len(tab.Vars))
	for i, sl := range tab.VarTable().Slots {
		slotOf[sl.Name] = i
	}
	tpls := tab.SlotTemplates(schemas)

	rng := rand.New(rand.NewSource(83))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var rows cq.DeltaRows // refilled across every valuation of the test
	instances, valuations := 0, 0
	var sameTuple, inD, finErrs, reverse, violated int
	for trial := 0; instances < 500; trial++ {
		if trial > 20000 {
			t.Fatalf("only %d partially closed instances in %d trials", instances, trial)
		}
		d := relation.NewDatabase(rSchema, sSchema)
		dm := relation.NewDatabase(mSchema)
		for i := rng.Intn(5); i > 0; i-- {
			d.MustAdd("R", pick(vals), pick(vals))
		}
		for i := rng.Intn(4); i > 0; i-- {
			d.MustAdd("S", pick(vals), pick([]string{"x", "y"}))
		}
		for i := rng.Intn(6); i > 0; i-- {
			dm.MustAdd("M", pick(vals), pick(vals))
		}
		set := NewSet()
		for _, con := range pool {
			if rng.Intn(2) == 0 {
				set.Add(con)
			}
		}
		if ok, err := set.Satisfied(d, dm); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue // the delta check assumes (D, Dm) ⊨ V
		}
		instances++
		for _, con := range set.Constraints {
			if con.Reverse {
				reverse++
				break
			}
		}
		dc := set.NewDeltaChecker(d, dm)
		dTuples := d.Instance("R").Tuples()
		for k := 0; k < 6; k++ {
			b := make(query.Binding, len(tab.Vars))
			for _, name := range tab.Vars {
				b[name] = relation.Value(pick(vals))
			}
			b["K"] = relation.Value(pick([]string{"x", "y"}))
			switch rng.Intn(6) {
			case 0: // the two R templates ground to one tuple
				b["C"], b["D"] = b["A"], b["B"]
			case 1: // a Δ tuple already in D
				if len(dTuples) > 0 {
					tup := dTuples[rng.Intn(len(dTuples))]
					b["A"], b["B"] = tup[0], tup[1]
				}
			case 2: // a value outside S.k's finite domain
				b["K"] = relation.Value(pick(vals))
			}
			slots := make([]int32, len(tab.Vars))
			for name, s := range slotOf {
				slots[s] = dict.Intern(b[name])
			}
			valuations++

			delta, wantErr := tab.Apply(b, schemas)
			gotErr := tpls.Ground(&rows, slots)
			if wantErr != nil || gotErr != nil {
				if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("instance %d: Ground error %v, Apply error %v", instances, gotErr, wantErr)
				}
				finErrs++
				continue
			}
			if b["A"] == b["C"] && b["B"] == b["D"] {
				sameTuple++
			}
			if d.Contains("R", relation.Tuple{b["A"], b["B"]}) {
				inD++
			}
			if rows.Len() != delta.TupleCount() {
				t.Fatalf("instance %d: %d rows, Apply built %d tuples\nΔ:\n%v", instances, rows.Len(), delta.TupleCount(), delta)
			}
			got, err := dc.SatisfiedGate(&rows, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := set.Satisfied(d.Union(delta), dm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("instance %d: row check %v, full recheck %v\nV:\n%v\nD:\n%v\nDm:\n%v\nΔ:\n%v", instances, got, want, set, d, dm, delta)
			}
			if !got {
				violated++
			}
		}
		dc.Flush()
	}
	t.Logf("%d instances, %d valuations: %d same-tuple, %d in D, %d finite-domain errors, %d with reverse constraints, %d violations",
		instances, valuations, sameTuple, inD, finErrs, reverse, violated)
	if sameTuple == 0 || inD == 0 || finErrs == 0 || reverse == 0 || violated == 0 || violated == valuations-finErrs {
		t.Fatal("the instances miss a required case")
	}
}

// TestDeltaCheckerRefusesNonMonotone: a non-monotone constraint has no
// differential check, so the row-delta checker refuses it, while
// Set.SatisfiedDeltaGate, which has Δ as a database, re-evaluates it
// over D ∪ Δ.
func TestDeltaCheckerRefusesNonMonotone(t *testing.T) {
	d, dm := edgeFixture()
	x, y := query.Var("x"), query.Var("y")
	sym := FromFO("sym", fo.NewQuery("sym", nil,
		fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNot(fo.FAtom("E", y, x))))), EmptySet())
	set := NewSet(sym)
	d.MustAdd("E", "a", "b")
	d.MustAdd("E", "b", "a")
	delta, _ := edgeFixture()
	delta.MustAdd("E", "a", "c")
	if _, err := set.NewDeltaChecker(d, dm).SatisfiedGate(cq.DeltaRowsOf(delta), nil, nil); err == nil {
		t.Fatal("the row-delta checker accepted an FO constraint")
	}
	if ok, err := set.SatisfiedDelta(d, delta, dm); err != nil || ok {
		t.Fatalf("SatisfiedDelta over an asymmetric extension = %v, %v; want false, nil", ok, err)
	}
}
