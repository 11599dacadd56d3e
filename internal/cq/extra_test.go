package cq

import (
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func TestContainment(t *testing.T) {
	ss := testSchemas()
	// q1(x) :- R(x,y), S(y,z)  ⊆  q2(x) :- R(x,y)
	q1 := New("q1", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y")), atom("S", v("y"), v("z"))})
	q2 := New("q2", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))})
	ok, err := Contained(q1, q2, ss)
	if err != nil || !ok {
		t.Fatalf("q1 ⊆ q2 should hold: %v %v", ok, err)
	}
	ok, err = Contained(q2, q1, ss)
	if err != nil || ok {
		t.Fatalf("q2 ⊆ q1 should fail: %v %v", ok, err)
	}
	// Equivalence under variable renaming.
	q3 := New("q3", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b"))})
	eq, err := Equivalent(q2, q3, ss)
	if err != nil || !eq {
		t.Fatalf("renamed queries must be equivalent: %v %v", eq, err)
	}
	// Constant selection strictly contained in unrestricted.
	q4 := New("q4", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), c("k"))})
	if ok, _ := Contained(q4, q2, ss); !ok {
		t.Fatal("selection ⊆ projection should hold")
	}
	if ok, _ := Contained(q2, q4, ss); ok {
		t.Fatal("projection ⊆ selection should fail")
	}
	// Unsatisfiable query contained in everything.
	q5 := New("q5", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))},
		query.Eq(v("x"), c("1")), query.Eq(v("x"), c("2")))
	if ok, _ := Contained(q5, q2, ss); !ok {
		t.Fatal("unsatisfiable query must be contained")
	}
	// Arity mismatch errors.
	q6 := New("q6", []query.Term{v("x"), v("y")},
		[]query.RelAtom{atom("R", v("x"), v("y"))})
	if _, err := Contained(q2, q6, ss); err == nil {
		t.Fatal("arity mismatch not rejected")
	}
}

// TestContainmentSemanticsRandom spot-checks the homomorphism test
// against direct evaluation: when Contained says q1 ⊆ q2, every random
// database must satisfy q1(D) ⊆ q2(D).
func TestContainmentSemanticsRandom(t *testing.T) {
	ss := testSchemas()
	pool := []*CQ{
		New("a", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))}),
		New("b", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("x"))}),
		New("c", []query.Term{v("x")},
			[]query.RelAtom{atom("R", v("x"), v("y")), atom("S", v("y"), v("z"))}),
		New("d", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), c("u"))}),
	}
	rng := rand.New(rand.NewSource(21))
	vals := []string{"u", "w"}
	for trial := 0; trial < 60; trial++ {
		q1 := pool[rng.Intn(len(pool))]
		q2 := pool[rng.Intn(len(pool))]
		contained, err := Contained(q1, q2, ss)
		if err != nil {
			t.Fatal(err)
		}
		if !contained {
			continue
		}
		d := relation.NewDatabase(ss["R"], ss["S"])
		for i, n := 0, rng.Intn(5); i < n; i++ {
			d.MustAdd("R", vals[rng.Intn(2)], vals[rng.Intn(2)])
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			d.MustAdd("S", vals[rng.Intn(2)], vals[rng.Intn(2)])
		}
		a1 := q1.Eval(d)
		set2 := map[string]bool{}
		for _, tu := range q2.Eval(d) {
			set2[tupleKey(tu)] = true
		}
		for _, tu := range a1 {
			if !set2[tupleKey(tu)] {
				t.Fatalf("containment %s ⊆ %s violated on\n%v", q1.Name, q2.Name, d)
			}
		}
	}
}

func TestUCQEvalAndValidate(t *testing.T) {
	ss := testSchemas()
	u := Union("U",
		New("u1", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))}),
		New("u2", []query.Term{v("x")}, []query.RelAtom{atom("S", v("y"), v("x"))}),
	)
	if err := u.Validate(ss); err != nil {
		t.Fatal(err)
	}
	d := testDB(t)
	got := u.Eval(d)
	if len(got) != 4 { // {1,2} from R, {u,v} from S
		t.Fatalf("union answers: %v", got)
	}
	// Arity mismatch across disjuncts.
	bad := Union("B",
		New("b1", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))}),
		New("b2", []query.Term{v("x"), v("y")}, []query.RelAtom{atom("R", v("x"), v("y"))}),
	)
	if bad.Validate(ss) == nil {
		t.Fatal("arity mismatch accepted")
	}
	if Union("E").Validate(ss) == nil {
		t.Fatal("empty union accepted")
	}
	// Clone independence.
	cp := u.Clone()
	cp.Disjuncts[0].Head[0] = c("z")
	if !u.Disjuncts[0].Head[0].IsVar {
		t.Fatal("Clone not deep")
	}
}

func TestUCQTableauxSkipsUnsat(t *testing.T) {
	u := Union("U",
		New("u1", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))}),
		New("u2", []query.Term{v("x")},
			[]query.RelAtom{atom("R", v("x"), v("y"))},
			query.Eq(v("x"), c("1")), query.Eq(v("x"), c("2"))),
	)
	if got := len(u.Tableaux()); got != 1 {
		t.Fatalf("Tableaux = %d, want 1 (unsat disjunct dropped)", got)
	}
}

func TestEFOToUCQ(t *testing.T) {
	// (R(x,y) ∧ (y='a' ∨ y='b')) expands into two disjuncts.
	body := And(
		FAtom("R", v("x"), v("y")),
		Or(FEq(v("y"), c("a")), FEq(v("y"), c("b"))),
	)
	q := NewEFO("Q", []query.Term{v("x")}, body)
	u := q.ToUCQ()
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"])
	d.MustAdd("R", "1", "a")
	d.MustAdd("R", "2", "b")
	d.MustAdd("R", "3", "z")
	got := q.Eval(d)
	if len(got) != 2 {
		t.Fatalf("Eval = %v", got)
	}
	if !q.EvalBool(d) {
		t.Fatal("EvalBool wrong")
	}
}

func TestEFOAlphaRenaming(t *testing.T) {
	// Reusing the bound name y in both branches must not capture.
	body := Or(
		Exists([]string{"y"}, And(FAtom("R", v("x"), v("y")), FEq(v("y"), c("a")))),
		Exists([]string{"y"}, And(FAtom("S", v("y"), v("x")), FNeq(v("y"), c("u")))),
	)
	q := NewEFO("Q", []query.Term{v("x")}, body)
	u := q.ToUCQ()
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	// The renamed bound variables must be distinct from the free x.
	for _, dq := range u.Disjuncts {
		for _, a := range dq.Atoms {
			for _, arg := range a.Args {
				if arg.IsVar && arg.Name == "y" {
					t.Fatal("bound variable not renamed")
				}
			}
		}
	}
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"], ss["S"])
	d.MustAdd("R", "1", "a")
	d.MustAdd("S", "w", "2")
	got := q.Eval(d)
	if len(got) != 2 {
		t.Fatalf("Eval = %v", got)
	}
}

func TestEFODistribution(t *testing.T) {
	// (p ∨ q) ∧ (r ∨ s) → 4 disjuncts.
	body := And(
		Or(FAtom("R", v("x"), c("1")), FAtom("R", v("x"), c("2"))),
		Or(FAtom("S", c("1"), v("x")), FAtom("S", c("2"), v("x"))),
	)
	u := NewEFO("Q", []query.Term{v("x")}, body).ToUCQ()
	if len(u.Disjuncts) != 4 {
		t.Fatalf("disjuncts = %d, want 4", len(u.Disjuncts))
	}
}

func TestSingleRelationLemma32(t *testing.T) {
	ss := testSchemas()
	sr := NewSingleRelation(ss)
	d := testDB(t)
	encD := sr.EncodeDatabase(d)

	queries := []*CQ{
		New("q1", []query.Term{v("a"), v("c")},
			[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b"), v("c"))}),
		New("q2", []query.Term{v("p")}, []query.RelAtom{atom("F", v("p"))}),
		New("q3", []query.Term{v("a")},
			[]query.RelAtom{atom("R", v("a"), v("b"))},
			query.Neq(v("a"), c("1"))),
	}
	for _, q := range queries {
		encQ, err := sr.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval(d)
		got := encQ.Eval(encD)
		if len(want) != len(got) {
			t.Fatalf("%s: Q(D)=%v but fQ(Q)(fD(D))=%v", q.Name, want, got)
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("%s: mismatch %v vs %v", q.Name, want, got)
			}
		}
	}
	// Unknown relation errors.
	if _, err := sr.EncodeQuery(New("q", nil, []query.RelAtom{atom("Z", v("x"))})); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestFreezeAvoidsConstants(t *testing.T) {
	ss := testSchemas()
	q := New("q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))})
	tb, err := BuildTableau(q)
	if err != nil {
		t.Fatal(err)
	}
	avoid := map[relation.Value]bool{"_frz1": true}
	db, head, err := tb.Freeze(ss, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if db.Contains("R", relation.T("_frz1", "_frz2")) {
		t.Fatal("avoided constant used")
	}
	if head == nil || len(head) != 1 {
		t.Fatalf("head = %v", head)
	}
}
