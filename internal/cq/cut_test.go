package cq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// These tests pin the existential cut of answer evaluation (ijoin.cut):
// answers equal the naive reference's, a cut join never visits a row
// the full enumeration would not, an answered head is never joined
// again, and a gate trip inside the part of the plan after the cut
// still stops the evaluation.

// referenceAnswers returns the distinct head tuples of q over db under
// the naive reference evaluator, sorted.
func referenceAnswers(q *CQ, db *relation.Database) []relation.Tuple {
	seen := map[string]relation.Tuple{}
	naiveBindings(q, db, nil, func(b query.Binding, _ []bool) {
		tu := make(relation.Tuple, len(q.Head))
		for i, h := range q.Head {
			tu[i], _ = b.Resolve(h)
		}
		seen[tupleKey(tu)] = tu
	})
	out := make([]relation.Tuple, 0, len(seen))
	for _, tu := range seen {
		out = append(out, tu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// cutShape reports whether the cut applies to t over d in the way the
// cut is for: the head is bound by a proper prefix of the plan, and the
// rest of the plan binds variables the head does not fix.
func cutShape(t *Tableau, d *relation.Database) bool {
	ip := t.plan()
	if ip.unsat || !ip.headBound {
		return false
	}
	order := planFor(t, d)
	k := ip.headPrefix(order)
	if k == len(order) {
		return false
	}
	bound := map[iterm]bool{}
	for _, ti := range order[:k] {
		for _, a := range ip.tmpls[ti] {
			bound[a] = true
		}
	}
	for _, ti := range order[k:] {
		for _, a := range ip.tmpls[ti] {
			if a >= 0 && !bound[a] {
				return true
			}
		}
	}
	return false
}

// headVariant is q under one kind of head.
type headVariant struct {
	kind string
	q    *CQ
}

// headVariants returns q under its own head and two more: the Boolean
// head, and a head that repeats q's first atom variable around a
// constant (when q has one).
func headVariants(q *CQ, konst string) []headVariant {
	out := []headVariant{{"own", q}, {"boolean", New(q.Name, nil, q.Atoms, q.Conds...)}}
	for _, a := range q.Atoms {
		for _, tm := range a.Args {
			if tm.IsVar {
				return append(out, headVariant{"repeated", New(q.Name, []query.Term{tm, query.C(konst), tm}, q.Atoms, q.Conds...)})
			}
		}
	}
	return out
}

// TestCutEvalMatchesReferenceRandom compares EvalGate, which runs the
// cut, with the naive reference on seeded random queries and databases
// (600 randomReferenceCase draws, then 200 correlatedConstCase draws),
// each under its own head, the Boolean head and a head repeating a
// variable around a constant. On every case the cut join charges no
// more rows than the full enumeration of EvalFuncGate. At least 300
// cases must be ones the cut is for (cutShape), with each head kind
// among them, and the correlated cases must put at least 40 plans on
// each side of the small-view threshold, so that both ways of counting
// a constant's rows order real joins.
func TestCutEvalMatchesReferenceRandom(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2425))
	cuts := map[string]int{}
	total := 0
	sides := map[bool]int{} // correlated cases by P's view being small
	for trial := 0; trial < 800; trial++ {
		var q0 *CQ
		var schemas map[string]*relation.Schema
		var full *relation.Database
		if trial < 600 {
			var d, delta *relation.Database
			q0, schemas, d, delta = randomReferenceCase(rng)
			full = d.Union(delta)
		} else {
			q0, schemas, full = correlatedConstCase(rng)
			sides[full.Instance("P").IDs().Small()]++
		}
		for _, hv := range headVariants(q0, "b") {
			kind, q := hv.kind, hv.q
			if err := q.Validate(schemas); err != nil {
				t.Fatalf("trial %d (%s): invalid query %s: %v", trial, kind, q, err)
			}
			want := referenceAnswers(q, full)
			g := query.NewGate(ctx, 1<<40, 1<<40)
			got, err := q.EvalGate(full, g)
			if err != nil {
				t.Fatalf("trial %d (%s): EvalGate: %v", trial, kind, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%s): EvalGate = %v, reference %v\nq: %s\nD:\n%v", trial, kind, got, want, q, full)
			}
			tb, err := q.Compiled()
			if err != nil {
				continue
			}
			gFull := query.NewGate(ctx, 1<<40, 1<<40)
			if err := tb.EvalFuncGate(full, gFull, func(query.Binding) bool { return true }); err != nil {
				t.Fatalf("trial %d (%s): EvalFuncGate: %v", trial, kind, err)
			}
			if g.Rows() > gFull.Rows() {
				t.Fatalf("trial %d (%s): cut join charged %d rows, full enumeration %d\nq: %s", trial, kind, g.Rows(), gFull.Rows(), q)
			}
			if cutShape(tb, full) {
				cuts[kind]++
				total++
			}
		}
	}
	t.Logf("cut cases: %d (%v)", total, cuts)
	if total < 300 {
		t.Fatalf("only %d cases cut a proper plan prefix with an existential rest; want at least 300", total)
	}
	for _, kind := range []string{"own", "boolean", "repeated"} {
		if cuts[kind] < 50 {
			t.Fatalf("only %d cut cases with the %s head; want at least 50", cuts[kind], kind)
		}
	}
	t.Logf("correlated cases by small P view: %v", sides)
	if sides[true] < 40 || sides[false] < 40 {
		t.Fatalf("correlated cases by small P view: %v; want at least 40 on each side", sides)
	}
}

// correlatedConstCase draws a reference case whose atoms hold two or
// three constants over correlated columns, where the exact constant
// counts of the planner decide the plan: P(k, a, b, v) holds 10 to 70
// rows, on both sides of the small-view threshold, whose b column
// follows its a column in four rows of five, and S(v, w) up to 30. The
// query's first atom is a P atom with constants in two or three of a, b
// and v (one in twelve a constant no row holds); up to two more atoms
// are P atoms of the same kind or S atoms over variables.
func correlatedConstCase(rng *rand.Rand) (*CQ, map[string]*relation.Schema, *relation.Database) {
	p := relation.NewSchema("P", relation.Attr("k"), relation.Attr("a"), relation.Attr("b"), relation.Attr("v"))
	s := relation.NewSchema("S", relation.Attr("v"), relation.Attr("w"))
	schemas := map[string]*relation.Schema{"P": p, "S": s}
	d := relation.NewDatabase(p, s)
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	for i, n := 0, 10+rng.Intn(61); i < n; i++ {
		a := pick("a", 4)
		b := "b" + a[1:]
		if rng.Intn(5) == 0 {
			b = pick("b", 4)
		}
		d.MustAdd("P", pick("k", n), a, b, pick("v", 6))
	}
	for i, n := 0, rng.Intn(31); i < n; i++ {
		d.MustAdd("S", pick("v", 6), pick("w", 5))
	}
	vars := []string{"x", "y", "z", "w"}
	variable := func() query.Term { return query.Var(vars[rng.Intn(len(vars))]) }
	constant := func(col int) query.Term {
		if rng.Intn(12) == 0 {
			return query.C("absent")
		}
		return query.C(pick([]string{"", "a", "b", "v"}[col], []int{0, 4, 4, 6}[col]))
	}
	pAtom := func() query.RelAtom {
		args := make([]query.Term, 4)
		args[0] = variable()
		free := 1 + rng.Intn(4) // the column left to a variable; 4: none
		for col := 1; col < 4; col++ {
			if col == free {
				args[col] = variable()
			} else {
				args[col] = constant(col)
			}
		}
		return query.Atom("P", args...)
	}
	atoms := []query.RelAtom{pAtom()}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		if rng.Intn(2) == 0 {
			atoms = append(atoms, pAtom())
		} else {
			atoms = append(atoms, query.Atom("S", variable(), variable()))
		}
	}
	var head []query.Term
	seen := map[string]bool{}
	for _, a := range atoms {
		for _, tm := range a.Args {
			if tm.IsVar && !seen[tm.Name] && rng.Intn(2) == 0 {
				seen[tm.Name] = true
				head = append(head, tm)
			}
		}
	}
	return New("qc", head, atoms), schemas, d
}

// cutDB builds R(x, y) and S(y, z, w) instances from rows.
func cutDB(r [][]string, s [][]string) *relation.Database {
	db := relation.NewDatabase(
		relation.NewSchema("R", relation.Attr("x"), relation.Attr("y")),
		relation.NewSchema("S", relation.Attr("y"), relation.Attr("z"), relation.Attr("w")),
	)
	for _, tu := range r {
		db.MustAdd("R", tu...)
	}
	for _, tu := range s {
		db.MustAdd("S", tu...)
	}
	return db
}

// TestCutSkipsAnsweredHeads pins the work of the cut on one database:
// R holds ten rows (a, y_i) and S ten rows (y_i, z_j, z_j) per y_i, so
// Q(x) :- R(x, y), S(y, z, z) has the one answer (a). The plan scans R
// (10 rows), which binds the head; the first R row's rest of the plan
// stops at its first S row, and the nine other R rows carry the
// answered head and are skipped: 11 rows, where the full enumeration
// charges 110. The Boolean query stops at its first leaf: 2 rows.
func TestCutSkipsAnsweredHeads(t *testing.T) {
	var r, s [][]string
	for i := 0; i < 10; i++ {
		y := fmt.Sprintf("y%d", i)
		r = append(r, []string{"a", y})
		for j := 0; j < 10; j++ {
			z := fmt.Sprintf("z%d", j)
			s = append(s, []string{y, z, z})
		}
	}
	db := cutDB(r, s)
	body := []query.RelAtom{atom("R", v("x"), v("y")), atom("S", v("y"), v("z"), v("z"))}
	for _, tc := range []struct {
		head []query.Term
		want string
		rows int64
	}{
		{[]query.Term{v("x")}, "[(a)]", 11},
		{nil, "[()]", 2},
	} {
		q := New("Q", tc.head, body)
		g := query.NewGate(context.Background(), 1<<40, 1<<40)
		got, err := q.EvalGate(db, g)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != tc.want || g.Rows() != tc.rows {
			t.Fatalf("%s: answers %v over %d rows; want %s over %d", q, got, g.Rows(), tc.want, tc.rows)
		}
	}
}

// TestCutGateTripInTail trips a row budget inside the rest of the plan
// after the cut. R holds (a0, b0) and then (a1..a9, b1); b0 has one
// matching S row, so the head (a0) is answered first, while each of
// b1's 1000 S rows fails the repeated z, so the next head's rest of the
// plan runs into the budget. The evaluation must return the gate's
// error and no answers, and stop within one batch of row charges of
// the budget instead of going on to the remaining heads.
func TestCutGateTripInTail(t *testing.T) {
	r := [][]string{{"a0", "b0"}}
	for i := 1; i < 10; i++ {
		r = append(r, []string{fmt.Sprintf("a%d", i), "b1"})
	}
	s := [][]string{{"b0", "k", "k"}}
	for i := 0; i < 1000; i++ {
		s = append(s, []string{"b1", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i)})
	}
	db := cutDB(r, s)
	q := New("Q", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y")), atom("S", v("y"), v("z"), v("z"))})
	const budget = 300
	g := query.NewGate(context.Background(), budget, 0)
	got, err := q.EvalGate(db, g)
	if !errors.Is(err, query.ErrRowBudget) || got != nil {
		t.Fatalf("EvalGate = %v, %v; want no answers and the row-budget error", got, err)
	}
	if g.Rows() > budget+gateFlushRows {
		t.Fatalf("evaluation charged %d rows after tripping a budget of %d", g.Rows(), budget)
	}
	// Unbudgeted, the same evaluation runs every head's rest of the
	// plan to its end and answers (a0) alone.
	all, err := q.EvalGate(db, nil)
	if err != nil || fmt.Sprint(all) != "[(a0)]" {
		t.Fatalf("unbudgeted EvalGate = %v, %v; want [(a0)]", all, err)
	}
}
