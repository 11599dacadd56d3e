package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// These tests pin the differential-evaluation contract of EvalFuncDeltaGate
// (every answer of d ∪ delta that uses a delta tuple is produced at
// least once, and nothing else) and the compiled-query cache (each CQ
// builds its tableau exactly once, failures included).

// deltaHeads collects the distinct head tuples EvalFuncDeltaGate produces.
func deltaHeads(t *Tableau, d, delta *relation.Database) map[string]bool {
	out := make(map[string]bool)
	t.EvalFuncDeltaGate(d, delta, nil, func(b query.Binding) bool {
		if h, ok := t.HeadTuple(b); ok {
			out[tupleKey(h)] = true
		}
		return true
	})
	return out
}

// probeIndex returns the tuples whose column col holds v as the join
// engine reads them: through the instance's IDIndex, scanning small
// instances and walking the posting container otherwise.
func probeIndex(in *relation.Instance, col int, v relation.Value) []relation.Tuple {
	id, ok := relation.Shared().ID(v)
	if !ok {
		return nil
	}
	ix := in.IDs()
	all := in.Tuples()
	var out []relation.Tuple
	if ix.Small() {
		for r, got := range ix.Cols()[col] {
			if got == id {
				out = append(out, all[r])
			}
		}
		return out
	}
	p := ix.Postings(col, id)
	if p.Bits != nil {
		p.Bits.ForEach(func(r int32) bool {
			out = append(out, all[r])
			return true
		})
		return out
	}
	for _, r := range p.Ranks {
		out = append(out, all[r])
	}
	return out
}

func keySet(ts []relation.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[tupleKey(t)] = true
	}
	return out
}

// randomDeltaCase draws a base database, a delta (possibly overlapping
// the base), and a random 1–3 atom query over R(a,b) and S(b,c).
func randomDeltaCase(rng *rand.Rand) (*CQ, *relation.Database, *relation.Database) {
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	ss := relation.NewSchema("S", relation.Attr("b"), relation.Attr("c"))
	vals := []string{"a", "b", "c"}
	rv := func() string { return vals[rng.Intn(len(vals))] }
	mk := func(n int) *relation.Database {
		db := relation.NewDatabase(rs, ss)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				db.MustAdd("R", rv(), rv())
			} else {
				db.MustAdd("S", rv(), rv())
			}
		}
		return db
	}
	d := mk(rng.Intn(6))
	delta := mk(rng.Intn(3) + 1)

	terms := []query.Term{query.Var("x"), query.Var("y"), query.Var("z"), query.C("a")}
	rt := func() query.Term { return terms[rng.Intn(len(terms))] }
	var atoms []query.RelAtom
	for i, n := 0, rng.Intn(3)+1; i < n; i++ {
		if rng.Intn(2) == 0 {
			atoms = append(atoms, query.Atom("R", rt(), rt()))
		} else {
			atoms = append(atoms, query.Atom("S", rt(), rt()))
		}
	}
	headVars := map[string]bool{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar {
				headVars[t.Name] = true
			}
		}
	}
	var head []query.Term
	for _, n := range []string{"x", "y", "z"} {
		if headVars[n] {
			head = append(head, query.Var(n))
		}
	}
	var conds []query.EqAtom
	if len(head) >= 2 && rng.Intn(3) == 0 {
		conds = append(conds, query.Neq(head[0], head[1]))
	}
	return New("qd", head, atoms, conds...), d, delta
}

// TestEvalFuncDeltaMatchesFullRandom cross-validates differential
// evaluation against full re-evaluation: for monotone CQs,
// Eval(d ∪ delta) = Eval(d) ∪ deltaHeads(d, delta) — exactly, because
// every answer new in the union has a match using at least one delta
// tuple.
func TestEvalFuncDeltaMatchesFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		q, d, delta := randomDeltaCase(rng)
		tb, err := q.Compiled()
		if err != nil {
			continue
		}
		full := d.Union(delta)
		want := keySet(tb.Eval(full))
		base := keySet(tb.Eval(d))
		got := deltaHeads(tb, d, delta)
		// Soundness: every differential head is a union answer.
		for k := range got {
			if !want[k] {
				t.Fatalf("trial %d: delta head %q not in Eval(d ∪ delta)\nq: %v\nd:\n%v\ndelta:\n%v",
					trial, k, q, d, delta)
			}
		}
		// Completeness: base ∪ differential covers the union.
		for k := range want {
			if !base[k] && !got[k] {
				t.Fatalf("trial %d: union answer %q missed by base and delta\nq: %v\nd:\n%v\ndelta:\n%v",
					trial, k, q, d, delta)
			}
		}
	}
}

// TestEvalFuncDeltaDuplicateInvocations pins the multi-delta-template
// case: a query with two templates over the same relation must invoke
// fn more than once for a binding whose match uses delta tuples in both
// positions — the documented "at least once, possibly more" contract —
// while still producing each head exactly as full evaluation does.
func TestEvalFuncDeltaDuplicateInvocations(t *testing.T) {
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	d := relation.NewDatabase(rs)
	delta := relation.NewDatabase(rs)
	delta.MustAdd("R", "a", "b")
	delta.MustAdd("R", "b", "c")

	// q(x,z) :- R(x,y), R(y,z): the only match a→b→c uses one delta
	// tuple in each template, so both differential passes find it.
	q := New("dup", []query.Term{v("x"), v("z")},
		[]query.RelAtom{atom("R", v("x"), v("y")), atom("R", v("y"), v("z"))})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	heads := make(map[string]int)
	tb.EvalFuncDeltaGate(d, delta, nil, func(b query.Binding) bool {
		calls++
		if h, ok := tb.HeadTuple(b); ok {
			heads[tupleKey(h)]++
		}
		return true
	})
	want := tupleKey(relation.T("a", "c"))
	if len(heads) != 1 || heads[want] == 0 {
		t.Fatalf("want single head %q, got %v", want, heads)
	}
	if calls != 2 {
		t.Fatalf("want 2 invocations (one per delta template position), got %d", calls)
	}
}

// TestCompiledBuildsOnce pins the compiled-query cache: evaluating a
// query any number of times compiles its tableau exactly once, and
// unsatisfiable queries cache their failure instead of re-running the
// union-find per call.
func TestCompiledBuildsOnce(t *testing.T) {
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	d := relation.NewDatabase(rs)
	d.MustAdd("R", "a", "b")

	q := New("once", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))})
	before := TableauBuilds()
	for i := 0; i < 5; i++ {
		if got := q.Eval(d); len(got) != 1 {
			t.Fatalf("eval %d: want 1 answer, got %v", i, got)
		}
	}
	if builds := TableauBuilds() - before; builds != 1 {
		t.Fatalf("satisfiable query: want exactly 1 tableau build across 5 evals, got %d", builds)
	}

	unsat := New("unsat", nil, []query.RelAtom{atom("R", v("x"), v("y"))},
		query.Eq(v("x"), c("a")), query.Eq(v("x"), c("b")))
	before = TableauBuilds()
	for i := 0; i < 5; i++ {
		if unsat.EvalBool(d) {
			t.Fatalf("eval %d: unsatisfiable query answered true", i)
		}
	}
	if builds := TableauBuilds() - before; builds != 1 {
		t.Fatalf("unsatisfiable query: want exactly 1 tableau build across 5 evals, got %d", builds)
	}

	// Clone and Rename return fresh, uncompiled queries: the clone
	// compiles independently rather than inheriting the memo.
	before = TableauBuilds()
	cp := q.Clone()
	if got := cp.Eval(d); len(got) != 1 {
		t.Fatalf("clone eval: want 1 answer, got %v", got)
	}
	if builds := TableauBuilds() - before; builds != 1 {
		t.Fatalf("cloned query: want 1 fresh build, got %d", builds)
	}
}

// TestLookupAndInvalidation pins the secondary-index contract the join
// engine relies on: an IDIndex probe returns exactly the matching
// tuples in Tuples() order, and Add/Remove invalidate via the
// generation counter.
func TestLookupAndInvalidation(t *testing.T) {
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	in := relation.NewInstance(rs)
	rng := rand.New(rand.NewSource(41))
	vals := []string{"a", "b", "c", "d"}
	for i := 0; i < 30; i++ {
		in.MustAdd(relation.T(vals[rng.Intn(4)], vals[rng.Intn(4)]))
	}
	check := func() {
		for col := 0; col < 2; col++ {
			seen := make(map[relation.Value]int)
			for _, v := range vals {
				bucket := probeIndex(in, col, relation.Value(v))
				// Bucket must equal the filtered scan, in scan order.
				var want []relation.Tuple
				for _, tup := range in.Tuples() {
					if tup[col] == relation.Value(v) {
						want = append(want, tup)
					}
				}
				if len(bucket) != len(want) {
					t.Fatalf("col %d val %s: bucket size %d, want %d", col, v, len(bucket), len(want))
				}
				for i := range bucket {
					if tupleKey(bucket[i]) != tupleKey(want[i]) {
						t.Fatalf("col %d val %s: bucket[%d] = %v, want %v", col, v, i, bucket[i], want[i])
					}
				}
				if len(bucket) > 0 {
					seen[relation.Value(v)] = len(bucket)
				}
			}
			if got := in.Distinct(col); got != len(seen) {
				t.Fatalf("col %d: Distinct = %d, want %d", col, got, len(seen))
			}
		}
	}
	check()
	gen := in.Generation()
	in.MustAdd(relation.T("e", "e"))
	if in.Generation() == gen {
		t.Fatal("Add did not bump the generation")
	}
	vals = append(vals, "e")
	check()
	gen = in.Generation()
	in.Remove(relation.T("e", "e"))
	if in.Generation() == gen {
		t.Fatal("Remove did not bump the generation")
	}
	check()
	// Removing an absent tuple must not invalidate.
	gen = in.Generation()
	in.Remove(relation.T("zz", "zz"))
	if in.Generation() != gen {
		t.Fatal("no-op Remove bumped the generation")
	}
}

// TestTupleKeyCollisionFree re-pins Key()'s injectivity on adversarial
// values after the strconv rewrite: values containing separators and
// digits must not collide.
func TestTupleKeyCollisionFree(t *testing.T) {
	cases := [][]relation.Tuple{
		{relation.T("ab", "c"), relation.T("a", "bc")},
		{relation.T("1:a", "b"), relation.T("1", ":ab")},
		{relation.T("", "x"), relation.T("x", "")},
		{relation.T("12", ""), relation.T("1", "2")},
		{relation.T("a"), relation.T("a", "")},
	}
	for _, pair := range cases {
		if tupleKey(pair[0]) == tupleKey(pair[1]) {
			t.Fatalf("collision: %v and %v share key %q", pair[0], pair[1], tupleKey(pair[0]))
		}
	}
	// And the key round-trips as a stable identity: equal tuples agree.
	a := relation.T("x", "07", "")
	b := relation.T("x", "07", "")
	if tupleKey(a) != tupleKey(b) {
		t.Fatalf("equal tuples with distinct keys: %q vs %q", tupleKey(a), tupleKey(b))
	}
}

// TestPlanOrderCostBased pins the planner on a case where cardinality
// matters: with a huge unselective relation and a tiny one, the
// cost-based order must start from the tiny one even though template
// order would not.
func TestPlanOrderCostBased(t *testing.T) {
	big := relation.NewSchema("Big", relation.Attr("a"), relation.Attr("b"))
	small := relation.NewSchema("Small", relation.Attr("b"))
	d := relation.NewDatabase(big, small)
	for i := 0; i < 50; i++ {
		d.MustAdd("Big", fmt.Sprintf("x%02d", i), fmt.Sprintf("y%02d", i))
	}
	d.MustAdd("Small", "y07")

	// q(x) :- Big(x, y), Small(y). Template order leads with Big;
	// cost-based starts at Small (1 tuple vs 50).
	q := New("plan", []query.Term{v("x")},
		[]query.RelAtom{atom("Big", v("x"), v("y")), atom("Small", v("y"))})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	order := planFor(tb, d)
	if order[0] != 1 {
		t.Fatalf("cost-based plan should lead with Small: got order %v", order)
	}
	want := []relation.Tuple{relation.T("x07")}
	got := tb.Eval(d)
	if len(got) != 1 || tupleKey(got[0]) != tupleKey(want[0]) {
		t.Fatalf("eval under cost-based plan: got %v, want %v", got, want)
	}
	sort.Ints(order)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("plan must be a permutation of the templates: %v", order)
	}
}

// tupleKey is a collision-free string encoding of a tuple, for keying
// test maps by tuple: each value is quoted.
func tupleKey(t relation.Tuple) string { return fmt.Sprintf("%q", []relation.Value(t)) }
