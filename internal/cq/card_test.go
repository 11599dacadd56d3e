package cq

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// These tests pin the cardinality cut of the plain join (card.go): the
// groups it detects, its answers against the naive reference, and the
// rows it saves over the same join without it.

// withoutCards returns a copy of the compiled tableau tb whose plan has
// no cardinality group: the plain join as it runs without the cut.
func withoutCards(tb *Tableau) *Tableau {
	ip := *tb.plan()
	ip.cards = nil
	out := *tb
	out.ip = &ip
	return &out
}

// cardEval runs the plain join of tb over d as AnswerIDsGate runs it
// and returns its answers with the rows it charged and the branches
// the cardinality cut pruned.
func cardEval(tb *Tableau, d *relation.Database) (*relation.IDTupleSet, int64, int64) {
	es := evalStats{}
	st := tb.isetup(d, nil, &es)
	set := relation.NewIDTupleSet(len(tb.Head), 0)
	if !st.ip.unsat && st.ip.headBound {
		st.answers(st.planOrder(), set)
	}
	return set, es.rows, es.cardCuts
}

// sameIDTuples reports whether a and b hold the same tuples in the
// same order.
func sameIDTuples(a, b *relation.IDTupleSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if fmt.Sprint(a.At(i)) != fmt.Sprint(b.At(i)) {
			return false
		}
	}
	return true
}

// atMostQuery is the AtMostK shape over S(a, b, c, z): m atoms that
// share the key term key at column 0 — and, with twoKeys, the variable
// K2 at column 1, else a variable of their own there — with counted
// variables Ci at column 2, pairwise ≠ except for the pair skip (i < j;
// [2]int{} skips none), and a variable Zi of their own at column 3.
func atMostQuery(head []query.Term, key query.Term, twoKeys bool, m int, skip [2]int, extra ...query.RelAtom) *CQ {
	var atoms []query.RelAtom
	var conds []query.EqAtom
	for i := 0; i < m; i++ {
		b := v(fmt.Sprintf("B%d", i))
		if twoKeys {
			b = v("K2")
		}
		atoms = append(atoms, atom("S", key, b, v(fmt.Sprintf("C%d", i)), v(fmt.Sprintf("Z%d", i))))
		for j := 0; j < i; j++ {
			if skip != [2]int{j, i} {
				conds = append(conds, query.Neq(v(fmt.Sprintf("C%d", j)), v(fmt.Sprintf("C%d", i))))
			}
		}
	}
	return New("atmost", head, append(atoms, extra...), conds...)
}

// TestCardGroupsDetected pins the groups the cut finds on the shapes
// it is for, and that a tableau without an inequality between two
// variables skips the detection without allocating.
func TestCardGroupsDetected(t *testing.T) {
	k, k2 := v("K"), v("K2")
	for _, tc := range []struct {
		name string
		q    *CQ
		want string
	}{
		{"at-most-3", atMostQuery([]query.Term{k}, k, false, 4, [2]int{}), "[{0 0 K 4}]"},
		{"two keys", atMostQuery([]query.Term{k, k2}, k, true, 3, [2]int{}), "[{0 0 K 3} {0 1 K2 3}]"},
		{"constant key", atMostQuery(nil, query.C("k0"), false, 2, [2]int{}), "[{0 0 k0 2}]"},
		{"counted in head", atMostQuery([]query.Term{k, v("C0")}, k, false, 3, [2]int{}), "[{0 0 K 3}]"},
		{"near-clique", atMostQuery([]query.Term{k}, k, false, 4, [2]int{1, 2}), "[{0 0 K 3}]"},
		{"one pair", atMostQuery([]query.Term{k}, k, false, 2, [2]int{0, 1}), "[]"},
		{"distinct constants", New("consts", []query.Term{k}, []query.RelAtom{
			atom("S", k, v("B"), query.C("x"), v("Z0")), atom("S", k, v("B"), query.C("y"), v("Z1")),
			atom("S", k, v("B"), v("C"), v("Z2")),
		}, query.Neq(v("Z0"), v("Z2")), query.Neq(v("Z1"), v("Z2"))), "[{0 0 K 3} {0 1 B 3}]"},
	} {
		tb, err := BuildTableau(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, g := range tb.ip.cards {
			key := "?"
			if g.key < 0 {
				key = string(tb.ip.consts[-g.key-1])
			} else {
				key = tb.Vars[g.key]
			}
			got = append(got, fmt.Sprintf("{%d %d %s %d}", g.tmpl, g.col, key, g.need))
		}
		if s := fmt.Sprint(got); s != tc.want {
			t.Errorf("%s: groups %s, want %s", tc.name, s, tc.want)
		}
	}

	noDiseq := New("q", []query.Term{k}, []query.RelAtom{
		atom("S", k, v("B"), v("C0"), v("Z0")), atom("S", k, v("B"), v("C1"), v("Z1")),
	}, query.Neq(v("C0"), query.C("x")))
	tb, err := BuildTableau(noDiseq)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ip.cards != nil {
		t.Fatalf("groups without a variable–variable inequality: %v", tb.ip.cards)
	}
	if allocs := testing.AllocsPerRun(100, func() { tb.ip.cardGroups(tb.Templates) }); allocs != 0 {
		t.Fatalf("detection on a tableau without a variable–variable inequality allocates %v times", allocs)
	}
}

// cardSchemas is S(a, b, c, z), the relation the groups run over, and
// T(a, b), which an extra atom joins so that the key is sometimes bound
// by a template outside the group.
func cardSchemas() (*relation.Schema, *relation.Schema) {
	return relation.NewSchema("S", relation.Attr("a"), relation.Attr("b"), relation.Attr("c"), relation.Attr("z")),
		relation.NewSchema("T", relation.Attr("a"), relation.Attr("b"))
}

// randomCardDB fills S with n rows over keys k0..k(nk-1) whose counted
// column draws from nc values — so each key's row count falls on both
// sides of a group's need — and T with a few rows over the same keys.
func randomCardDB(rng *rand.Rand, n, nk, nc int) *relation.Database {
	s, tr := cardSchemas()
	d := relation.NewDatabase(s, tr)
	pick := func(p string, k int) string { return fmt.Sprintf("%s%d", p, rng.Intn(k)) }
	for i := 0; i < n; i++ {
		d.MustAdd("S", pick("k", nk), pick("b", 2), pick("c", nc), pick("z", 3))
	}
	for i, m := 0, rng.Intn(6); i < m; i++ {
		d.MustAdd("T", pick("k", nk), pick("t", 3))
	}
	return d
}

// TestCardinalityCutMatchesReferenceRandom compares AnswerIDsGate
// (through EvalGate, which sorts its answers) with the naive reference on seeded random AtMostK-shaped queries — cliques
// of 2 to 5 atoms (k = 1–4), one or two key columns or a constant key,
// heads with the key, with the key and a counted variable, or none,
// near-cliques with one inequality missing, and an extra atom that may
// bind the key first — over instances on both sides of the small-view
// threshold. On every case the join with the cut gives the answers of
// the join without it, in the same order, and charges no more rows; the cut must prune
// branches in at least 150 cases, 60 of them on each side of the
// threshold.
func TestCardinalityCutMatchesReferenceRandom(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(33))
	pruned := map[bool]int{}
	kinds := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(22) // small views: at most 24 rows
		if rng.Intn(2) == 0 {
			n = 25 + rng.Intn(36)
		}
		// About one to five rows per key: around every need, and few
		// enough for the naive reference's nested loops.
		d := randomCardDB(rng, n, max(1, n/(1+rng.Intn(5))), 2+rng.Intn(5))
		m := 2 + rng.Intn(4)
		key, twoKeys := v("K"), rng.Intn(3) == 0
		kind := "one key"
		if twoKeys {
			kind = "two keys"
		}
		if rng.Intn(5) == 0 {
			key, kind = query.C(fmt.Sprintf("k%d", rng.Intn(3))), "constant key"
		}
		var head []query.Term
		switch rng.Intn(3) {
		case 0:
			if key.IsVar {
				head = []query.Term{key}
			}
		case 1:
			head = []query.Term{key, v("C0")}
			kind += ", counted in head"
		}
		skip := [2]int{}
		if rng.Intn(3) == 0 {
			i := rng.Intn(m - 1)
			skip = [2]int{i, i + 1 + rng.Intn(m-1-i)}
			kind += ", near-clique"
		}
		var extra []query.RelAtom
		if rng.Intn(3) == 0 {
			extra = append(extra, atom("T", key, v("X")))
		}
		q := atMostQuery(head, key, twoKeys, m, skip, extra...)
		s, tr := cardSchemas()
		if err := q.Validate(map[string]*relation.Schema{"S": s, "T": tr}); err != nil {
			t.Fatalf("trial %d: invalid query %s: %v", trial, q, err)
		}

		want := referenceAnswers(q, d)
		got, err := q.EvalGate(d, query.NewGate(ctx, 1<<40, 1<<40))
		if err != nil {
			t.Fatalf("trial %d: EvalGate: %v", trial, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%s): EvalGate = %v, reference %v\nq: %s\nD:\n%v", trial, kind, got, want, q, d)
		}

		tb, err := q.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		set, rows, cuts := cardEval(tb, d)
		plainSet, plainRows, plainCuts := cardEval(withoutCards(tb), d)
		if plainCuts != 0 {
			t.Fatalf("trial %d: the join without groups counted %d cuts", trial, plainCuts)
		}
		if !sameIDTuples(set, plainSet) {
			t.Fatalf("trial %d (%s): answers with the cut differ from the join without it, or come in another order\nq: %s", trial, kind, q)
		}
		if rows > plainRows {
			t.Fatalf("trial %d (%s): the cut join charged %d rows, the join without it %d\nq: %s", trial, kind, rows, plainRows, q)
		}
		if cuts > 0 {
			pruned[d.Instance("S").IDs().Small()]++
			kinds[kind]++
		}
	}
	t.Logf("pruning cases by small S view: %v; by kind: %v", pruned, kinds)
	if pruned[true]+pruned[false] < 150 || pruned[true] < 60 || pruned[false] < 60 {
		t.Fatalf("pruning cases by small S view: %v; want 150 in all, 60 on each side", pruned)
	}
	for _, kind := range []string{"one key", "two keys", "constant key", "one key, counted in head", "one key, near-clique"} {
		if kinds[kind] == 0 {
			t.Errorf("no pruning case of kind %q", kind)
		}
	}
}
