package cq

import (
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

// quickDB materializes a database over R(a,b), S(b,c) from generated
// byte seeds (two values per column keep the join space interesting).
func quickDB(rSeed, sSeed []byte) *relation.Database {
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"], ss["S"])
	vals := []string{"u", "w", "x"}
	for i := 0; i+1 < len(rSeed) && i < 12; i += 2 {
		d.MustAdd("R", vals[int(rSeed[i])%3], vals[int(rSeed[i+1])%3])
	}
	for i := 0; i+1 < len(sSeed) && i < 12; i += 2 {
		d.MustAdd("S", vals[int(sSeed[i])%3], vals[int(sSeed[i+1])%3])
	}
	return d
}

// TestQuickMonotonicity: CQ, UCQ and ∃FO⁺ are monotone — answers never
// shrink when tuples are added (the property underlying the paper's
// single-disjunct counterexample argument).
func TestQuickMonotonicity(t *testing.T) {
	q := New("Q", []query.Term{v("a"), v("c")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b"), v("c"))},
		query.Neq(v("a"), v("c")))
	prop := func(rSeed, sSeed, extra []byte) bool {
		d := quickDB(rSeed, sSeed)
		before := q.Eval(d)
		ext := d.Clone()
		vals := []string{"u", "w", "x", "z"}
		for i := 0; i+1 < len(extra) && i < 8; i += 2 {
			ext.MustAdd("R", vals[int(extra[i])%4], vals[int(extra[i+1])%4])
		}
		after := map[string]bool{}
		for _, tu := range q.Eval(ext) {
			after[tupleKey(tu)] = true
		}
		for _, tu := range before {
			if !after[tupleKey(tu)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvalDeterministic: evaluation over equal databases built in
// different insertion orders yields identical answer sequences.
func TestQuickEvalDeterministic(t *testing.T) {
	q := New("Q", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b"))})
	prop := func(seed []byte) bool {
		d1 := quickDB(seed, nil)
		// Insert in reverse order.
		ss := testSchemas()
		d2 := relation.NewDatabase(ss["R"], ss["S"])
		tuples := d1.Instance("R").Tuples()
		for i := len(tuples) - 1; i >= 0; i-- {
			d2.MustAdd("R", string(tuples[i][0]), string(tuples[i][1]))
		}
		a1, a2 := q.Eval(d1), q.Eval(d2)
		if len(a1) != len(a2) {
			return false
		}
		for i := range a1 {
			if !a1[i].Equal(a2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTableauEquivalence: evaluating a query directly and through
// its tableau's AsCQ round trip gives the same answers.
func TestQuickTableauEquivalence(t *testing.T) {
	q := New("Q", []query.Term{v("a"), v("c")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b2"), v("c"))},
		query.Eq(v("b"), v("b2")), query.Neq(v("a"), c("u")))
	tb, err := BuildTableau(q)
	if err != nil {
		t.Fatal(err)
	}
	round := tb.AsCQ()
	prop := func(rSeed, sSeed []byte) bool {
		d := quickDB(rSeed, sSeed)
		a1, a2 := q.Eval(d), round.Eval(d)
		if len(a1) != len(a2) {
			return false
		}
		for i := range a1 {
			if !a1[i].Equal(a2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionSemantics: UCQ answers equal the set union of disjunct
// answers.
func TestQuickUnionSemantics(t *testing.T) {
	q1 := New("q1", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))})
	q2 := New("q2", []query.Term{v("x")}, []query.RelAtom{atom("S", v("y"), v("x"))})
	u := Union("U", q1, q2)
	prop := func(rSeed, sSeed []byte) bool {
		d := quickDB(rSeed, sSeed)
		want := map[string]bool{}
		for _, tu := range q1.Eval(d) {
			want[tupleKey(tu)] = true
		}
		for _, tu := range q2.Eval(d) {
			want[tupleKey(tu)] = true
		}
		got := u.Eval(d)
		if len(got) != len(want) {
			return false
		}
		for _, tu := range got {
			if !want[tupleKey(tu)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
