package cq

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// These tests pin the join planner's cost model (ijoin.planOrder,
// templateCost): a template costs its rows times the exact share of
// rows holding each of its constants, times 1/Distinct for each column
// holding a bound variable.

// planFor returns the plan order of t over d.
func planFor(t *Tableau, d *relation.Database) []int {
	return t.isetup(d, nil, &evalStats{}).planOrder()
}

// costOf returns templateCost of template i of t over d with the given
// variables bound.
func costOf(t *testing.T, tb *Tableau, d *relation.Database, i int, boundVars ...string) (float64, int) {
	t.Helper()
	st := tb.isetup(d, nil, &evalStats{})
	slots := tb.VarTable().Slots
	bound := make([]bool, len(slots))
	for _, name := range boundVars {
		found := false
		for s, sl := range slots {
			if sl.Name == name {
				bound[s], found = true, true
			}
		}
		if !found {
			t.Fatalf("%s is not a variable of %s", name, tb.Query)
		}
	}
	return st.templateCost(i, st.constRows(i), bound)
}

// crmDB builds the shape of the CRM scenario behind Q1: 40 domestic
// customers (country code '01', four area codes in turn) and 20
// international ones (country codes 02..21, area code '020'), and 10
// employees supporting 3 customers each.
func crmDB() *relation.Database {
	d := relation.NewDatabase(
		relation.NewSchema("Cust", relation.Attr("cid"), relation.Attr("name"), relation.Attr("cc"), relation.Attr("ac"), relation.Attr("phone")),
		relation.NewSchema("Supt", relation.Attr("eid"), relation.Attr("dept"), relation.Attr("cid")),
	)
	acs := []string{"908", "973", "201", "609"}
	for i := 0; i < 40; i++ {
		d.MustAdd("Cust", fmt.Sprintf("c%03d", i), fmt.Sprintf("n%d", i), "01", acs[i%4], fmt.Sprintf("555%04d", i))
	}
	for i := 0; i < 20; i++ {
		d.MustAdd("Cust", fmt.Sprintf("i%03d", i), fmt.Sprintf("in%d", i), fmt.Sprintf("%02d", 2+i), "020", fmt.Sprintf("777%04d", i))
	}
	for e := 0; e < 10; e++ {
		for k := 0; k < 3; k++ {
			d.MustAdd("Supt", fmt.Sprintf("e%02d", e), "sales", fmt.Sprintf("c%03d", (e*3+k*7)%40))
		}
	}
	return d
}

// TestPlanCorrelatedConstantsKeepsSelectiveScanFirst pins the Q1 shape
// of Example 1.1, Q1(c) :- Supt('e00', d, c), Cust(c, n, '01', '908', p).
// The country and area codes are correlated: every '908' customer is
// domestic. Exact shares give Supt 30·3/30 = 3 rows and Cust
// 60·(40/60)·(10/60) ≈ 6.7, so Supt leads. With 1/Distinct for the
// constants too, Cust would read 60/21/5 ≈ 0.6 and lead, although 10
// customers match.
func TestPlanCorrelatedConstantsKeepsSelectiveScanFirst(t *testing.T) {
	d := crmDB()
	q := New("Q1", []query.Term{v("c")}, []query.RelAtom{
		atom("Supt", query.C("e00"), v("d"), v("c")),
		atom("Cust", v("c"), v("n"), query.C("01"), query.C("908"), v("p")),
	})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if supt, _ := costOf(t, tb, d, 0); supt != 3 {
		t.Fatalf("Supt('e00', d, c) costs %v, want 3", supt)
	}
	if cust, _ := costOf(t, tb, d, 1); cust < 6.6 || cust > 6.7 {
		t.Fatalf("Cust(c, n, '01', '908', p) costs %v, want 60·(40/60)·(10/60)", cust)
	}
	if order := planFor(tb, d); order[0] != 0 {
		t.Fatalf("plan %v does not lead with Supt", order)
	}
	// Bound through Supt, Cust's key column leaves one row.
	if cust, _ := costOf(t, tb, d, 1, "c"); cust < 0.11 || cust > 0.12 {
		t.Fatalf("Cust with c bound costs %v, want 60·(40/60)·(10/60)/60", cust)
	}
}

// TestPlanAbsentConstantCostsZero: a constant no row holds — here one
// the dictionary had never seen before the evaluation — matches no
// row, so its template costs 0 and leads the plan whatever its size.
func TestPlanAbsentConstantCostsZero(t *testing.T) {
	d := crmDB()
	const absent = "ac-absent-from-every-instance"
	if _, ok := relation.Shared().ID(absent); ok {
		t.Fatalf("%q is already in the dictionary", absent)
	}
	q := New("Q", []query.Term{v("c")}, []query.RelAtom{
		atom("Supt", v("e"), v("d"), v("c")),
		atom("Cust", v("c"), v("n"), v("cc"), query.C(absent), v("p")),
	})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if cost, newVars := costOf(t, tb, d, 1); cost != 0 || newVars != 4 {
		t.Fatalf("Cust(c, n, cc, %q, p) costs %v with %d new variables, want 0 and 4", absent, cost, newVars)
	}
	if order := planFor(tb, d); order[0] != 1 {
		t.Fatalf("plan %v does not lead with the empty template", order)
	}
	if got := tb.Eval(d); len(got) != 0 {
		t.Fatalf("answers %v, want none", got)
	}
}

// TestPlanBoundGateBeforeUnboundScan pins the fault of a min-based
// estimate on the ∀∃-3SAT reduction's clause circuit: an OR gate
// R2(a, b, o) whose inputs are both bound matches 4·(1/2)·(1/2) = 1 row
// and must cost less than an unbound scan R1(y) of the two truth
// values, where the smaller of 4/2 and 4/2 ties with it.
func TestPlanBoundGateBeforeUnboundScan(t *testing.T) {
	d := relation.NewDatabase(
		relation.NewSchema("R1", relation.Attr("x")),
		relation.NewSchema("R2", relation.Attr("a"), relation.Attr("b"), relation.Attr("o")),
	)
	d.MustAdd("R1", "0")
	d.MustAdd("R1", "1")
	for _, row := range [][]string{{"0", "0", "0"}, {"0", "1", "1"}, {"1", "0", "1"}, {"1", "1", "1"}} {
		d.MustAdd("R2", row...)
	}
	q := New("Q", []query.Term{v("a"), v("b")}, []query.RelAtom{
		atom("R1", v("a")), atom("R1", v("b")), atom("R1", v("y")), atom("R2", v("a"), v("b"), v("o")),
	})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	gateCost, _ := costOf(t, tb, d, 3, "a", "b")
	scanCost, _ := costOf(t, tb, d, 2, "a", "b")
	if gateCost != 1 || scanCost != 2 {
		t.Fatalf("bound gate costs %v and unbound scan %v, want 1 and 2", gateCost, scanCost)
	}
	if order := planFor(tb, d); fmt.Sprint(order) != "[0 1 3 2]" {
		t.Fatalf("plan %v, want the gate before the free scan: [0 1 3 2]", order)
	}
}

// TestPlanProbesFewestRows pins the planned probe column: of a
// template's bound columns the plain join probes the one expected to
// match the fewest rows. Cust(c, n, '01', '908', p) alone probes the
// area code (10 rows), not the country code (40 rows, though its
// column has the most distinct ids); once Supt binds c, Cust probes
// the key column (one row per customer).
func TestPlanProbesFewestRows(t *testing.T) {
	d := crmDB()
	cust := atom("Cust", v("c"), v("n"), query.C("01"), query.C("908"), v("p"))
	for _, tc := range []struct {
		body  []query.RelAtom
		probe int // Cust's planned probe column
		rows  int64
	}{
		{[]query.RelAtom{cust}, 3, 10},
		{[]query.RelAtom{atom("Supt", query.C("e00"), v("d"), v("c")), cust}, 0, 6},
	} {
		q := New("Q", []query.Term{v("c")}, tc.body)
		tb, err := q.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		st := tb.isetup(d, nil, &evalStats{})
		st.planOrder()
		ci := len(tc.body) - 1
		g := query.NewGate(context.Background(), 0, 0)
		if _, err := q.EvalGate(d, g); err != nil {
			t.Fatal(err)
		}
		if st.probeAt[ci] != tc.probe || g.Rows() != tc.rows {
			t.Fatalf("%s: Cust probes column %d over %d rows, want column %d over %d", q, st.probeAt[ci], g.Rows(), tc.probe, tc.rows)
		}
	}
}
