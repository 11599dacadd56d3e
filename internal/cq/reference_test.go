package cq

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// randomReferenceCase draws a random schema (one to three relations of
// arity one to three), a random CQ over it — constants, repeated
// variables, equalities (some binding a variable that occurs in no
// atom) and inequalities — and a base database d plus a delta that may
// overlap it. One case in eight is "big": at most two atoms over
// instances of up to a few hundred rows with column 0 skewed toward
// one value, so the posting-list and bitset probe paths engage; one
// small case in twenty has no atoms at all.
func randomReferenceCase(rng *rand.Rand) (*CQ, map[string]*relation.Schema, *relation.Database, *relation.Database) {
	nrel := 1 + rng.Intn(3)
	schemas := make(map[string]*relation.Schema, nrel)
	ss := make([]*relation.Schema, nrel)
	for i := range ss {
		attrs := make([]relation.Attribute, 1+rng.Intn(3))
		for j := range attrs {
			attrs[j] = relation.Attr(fmt.Sprintf("c%d", j))
		}
		ss[i] = relation.NewSchema(fmt.Sprintf("R%d", i), attrs...)
		schemas[ss[i].Name] = ss[i]
	}
	big := rng.Intn(8) == 0
	vals := []string{"a", "b", "c", "d"}
	if big {
		vals = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	}
	val := func() string { return vals[rng.Intn(len(vals))] }
	fill := func(maxRows int) *relation.Database {
		db := relation.NewDatabase(ss...)
		for _, s := range ss {
			for i, n := 0, rng.Intn(maxRows+1); i < n; i++ {
				tu := make([]string, s.Arity())
				for j := range tu {
					tu[j] = val()
				}
				if big && rng.Intn(2) == 0 {
					tu[0] = "a" // skew: a dense posting list on column 0
				}
				db.MustAdd(s.Name, tu...)
			}
		}
		return db
	}
	d, delta := fill(8), fill(3)
	if big {
		d, delta = fill(300), fill(20)
	}

	varNames := []string{"x", "y", "z", "w"}
	term := func() query.Term {
		if rng.Intn(5) == 0 {
			return query.C(val())
		}
		return query.Var(varNames[rng.Intn(len(varNames))])
	}
	natoms := 1 + rng.Intn(4)
	if big {
		natoms = 1 + rng.Intn(2)
	} else if rng.Intn(20) == 0 {
		natoms = 0
	}
	var atoms []query.RelAtom
	var inAtoms []query.Term
	seen := map[string]bool{}
	for i := 0; i < natoms; i++ {
		s := ss[rng.Intn(nrel)]
		args := make([]query.Term, s.Arity())
		for j := range args {
			args[j] = term()
			if args[j].IsVar && !seen[args[j].Name] {
				seen[args[j].Name] = true
				inAtoms = append(inAtoms, args[j])
			}
		}
		atoms = append(atoms, query.Atom(s.Name, args...))
	}
	// Condition operands: atom variables and constants, plus h, which
	// occurs in no atom and is made safe by an equality.
	operand := func() query.Term {
		if len(inAtoms) == 0 || rng.Intn(3) == 0 {
			return query.C(val())
		}
		return inAtoms[rng.Intn(len(inAtoms))]
	}
	var conds []query.EqAtom
	for i, n := 0, rng.Intn(3); i < n; i++ {
		if rng.Intn(2) == 0 {
			conds = append(conds, query.Neq(operand(), operand()))
		} else {
			conds = append(conds, query.Eq(operand(), operand()))
		}
	}
	headPool := append([]query.Term(nil), inAtoms...)
	if len(inAtoms) == 0 || rng.Intn(4) == 0 {
		h := query.Var("h")
		conds = append(conds, query.Eq(h, operand()))
		if rng.Intn(2) == 0 {
			conds = append(conds, query.Neq(h, query.C(val())))
		}
		headPool = append(headPool, h)
	}
	var head []query.Term
	for _, tm := range headPool {
		if rng.Intn(2) == 0 {
			head = append(head, tm)
		}
	}
	if rng.Intn(6) == 0 {
		head = append(head, query.C(val()))
	}
	return New("qr", head, atoms, conds...), schemas, d, delta
}

// headKey serializes the head of q under a reference binding.
func headKey(q *CQ, b query.Binding) string {
	tu := make(relation.Tuple, len(q.Head))
	for i, h := range q.Head {
		tu[i], _ = b.Resolve(h)
	}
	return tupleKey(tu)
}

// sameSet reports set equality of two key sets, naming one difference.
func sameSet(got, want map[string]int) (string, bool) {
	for k := range want {
		if got[k] == 0 {
			return fmt.Sprintf("missing %q", k), false
		}
	}
	for k := range got {
		if want[k] == 0 {
			return fmt.Sprintf("unexpected %q", k), false
		}
	}
	return "", true
}

// referenceTrials is the number of seeded random cases each naive-
// reference test runs; at least referenceSatisfiable of them have a
// satisfiable tableau.
const (
	referenceTrials      = 700
	referenceSatisfiable = 500
)

// forEachReferenceCase runs fn on the seeded random cases of
// randomReferenceCase, after checking that each query validates.
func forEachReferenceCase(t *testing.T, fn func(trial int, q *CQ, d, delta *relation.Database)) {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < referenceTrials; trial++ {
		q, schemas, d, delta := randomReferenceCase(rng)
		if err := q.Validate(schemas); err != nil {
			t.Fatalf("trial %d: generated an invalid query %s: %v", trial, q, err)
		}
		fn(trial, q, d, delta)
	}
}

// TestIndexedEvalMatchesScanRandom checks the indexed join engine's
// answers against the naive nested-loop scan of naive_test.go on
// random schemas, queries and databases: Eval (ungoverned and gated)
// returns exactly the reference's distinct head tuples, sorted.
func TestIndexedEvalMatchesScanRandom(t *testing.T) {
	ctx := context.Background()
	forEachReferenceCase(t, func(trial int, q *CQ, d, delta *relation.Database) {
		full := d.Union(delta)
		wantAns := map[string]relation.Tuple{}
		naiveBindings(q, full, nil, func(b query.Binding, _ []bool) {
			tu := make(relation.Tuple, len(q.Head))
			for i, h := range q.Head {
				tu[i], _ = b.Resolve(h)
			}
			wantAns[tupleKey(tu)] = tu
		})
		want := make([]relation.Tuple, 0, len(wantAns))
		for _, tu := range wantAns {
			want = append(want, tu)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })

		got := q.Eval(full)
		g := query.NewGate(ctx, 1<<40, 1<<40)
		gated, err := q.EvalGate(full, g)
		if err != nil {
			t.Fatalf("trial %d: EvalGate: %v", trial, err)
		}
		for name, ans := range map[string][]relation.Tuple{"Eval": got, "EvalGate": gated} {
			if len(ans) != len(want) {
				t.Fatalf("trial %d: %s = %v, reference %v\nq: %s\nD ∪ Δ:\n%v", trial, name, ans, want, q, full)
			}
			for i := range ans {
				if !ans[i].Equal(want[i]) {
					t.Fatalf("trial %d: %s[%d] = %v, reference %v\nq: %s\nD ∪ Δ:\n%v", trial, name, i, ans[i], want[i], q, full)
				}
			}
		}
	})
}

// TestEvalInternedMatchesLegacy checks the binding-level paths of the
// interned engine against the naive reference, which works on string
// values read from Tuples() rather than on dictionary ids, on the same
// random cases:
//
//   - EvalFuncGate enumerates exactly the reference's bindings (over the
//     tableau variables), each once;
//   - EvalFuncDeltaGate enumerates exactly the bindings over D ∪ Δ that
//     match some atom to a Δ tuple — which include every binding new
//     over D ∪ Δ, and are precisely those when Δ and D are disjoint —
//     and EvalFuncDeltaIDsGate yields exactly their head tuples.
func TestEvalInternedMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	checked := 0
	forEachReferenceCase(t, func(trial int, q *CQ, d, delta *relation.Database) {
		full := d.Union(delta)
		tb, err := q.Compiled()
		if err != nil {
			return // unsatisfiable: TestIndexedEvalMatchesScanRandom checks the empty answer set
		}
		checked++
		wantB, wantDelta, wantHeads, newB := map[string]int{}, map[string]int{}, map[string]int{}, map[string]int{}
		naiveBindings(q, full, nil, func(b query.Binding, _ []bool) { wantB[bindingKey(tb.Vars, b)]++ })
		baseB := map[string]int{}
		naiveBindings(q, d, nil, func(b query.Binding, _ []bool) { baseB[bindingKey(tb.Vars, b)]++ })
		for k := range wantB {
			if baseB[k] == 0 {
				newB[k]++
			}
		}
		naiveBindings(q, d, delta, func(b query.Binding, inDelta []bool) {
			for _, used := range inDelta {
				if used {
					wantDelta[bindingKey(tb.Vars, b)]++
					wantHeads[headKey(q, b)]++
					return
				}
			}
		})

		gotB := map[string]int{}
		if err := tb.EvalFuncGate(full, query.NewGate(ctx, 1<<40, 1<<40), func(b query.Binding) bool {
			gotB[bindingKey(tb.Vars, b)]++
			return true
		}); err != nil {
			t.Fatalf("trial %d: EvalFuncGate: %v", trial, err)
		}
		if diff, ok := sameSet(gotB, wantB); !ok {
			t.Fatalf("trial %d: EvalFuncGate bindings differ from reference: %s\nq: %s\nD ∪ Δ:\n%v", trial, diff, q, full)
		}
		for k, n := range gotB {
			if n != 1 {
				t.Fatalf("trial %d: EvalFuncGate produced binding %q %d times", trial, k, n)
			}
		}

		gotDelta := map[string]int{}
		if err := tb.EvalFuncDeltaGate(d, delta, query.NewGate(ctx, 1<<40, 1<<40), func(b query.Binding) bool {
			gotDelta[bindingKey(tb.Vars, b)]++
			return true
		}); err != nil {
			t.Fatalf("trial %d: EvalFuncDeltaGate: %v", trial, err)
		}
		if diff, ok := sameSet(gotDelta, wantDelta); !ok {
			t.Fatalf("trial %d: EvalFuncDeltaGate bindings differ from reference: %s\nq: %s\nD:\n%v\nΔ:\n%v", trial, diff, q, d, delta)
		}
		for k := range newB {
			if gotDelta[k] == 0 {
				t.Fatalf("trial %d: EvalFuncDeltaGate missed new binding %q\nq: %s\nD:\n%v\nΔ:\n%v", trial, k, q, d, delta)
			}
		}

		gotHeads := map[string]int{}
		vals := relation.Shared().Snapshot()
		if err := tb.EvalFuncDeltaIDsGate(d, delta, query.NewGate(ctx, 1<<40, 1<<40), func(head []int32) bool {
			tu := make(relation.Tuple, len(head))
			for i, id := range head {
				tu[i] = vals[id]
			}
			gotHeads[tupleKey(tu)]++
			return true
		}); err != nil {
			t.Fatalf("trial %d: EvalFuncDeltaIDsGate: %v", trial, err)
		}
		if diff, ok := sameSet(gotHeads, wantHeads); !ok {
			t.Fatalf("trial %d: EvalFuncDeltaIDsGate heads differ from reference: %s\nq: %s\nD:\n%v\nΔ:\n%v", trial, diff, q, d, delta)
		}
	})
	if checked < referenceSatisfiable {
		t.Fatalf("only %d of %d random cases had a satisfiable tableau; want at least %d", checked, referenceTrials, referenceSatisfiable)
	}
}
