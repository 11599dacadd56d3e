package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// These tests cross-validate the exact deciders against the brute-force
// bounded search of bounded.go. For monotone languages Proposition 3.3
// bounds counterexamples by |T_Q| tuples over Adom, so a bounded search
// with MaxAdd ≥ |T_Q| and a fresh pool covering the tableau variables
// is an exact oracle — an independent implementation of the semantics
// ("enumerate extensions, re-evaluate") against which the valuation-
// based decider is checked on enumerated random instances.

// microSchema: R(a, b) with infinite domains and F(p) over {0,1}.
func microSchema() (*relation.Schema, *relation.Schema) {
	return relation.NewSchema("R", relation.Attr("a"), relation.Attr("b")),
		relation.NewSchema("F", relation.FinAttr("p", "0", "1"))
}

// randomMicroDB draws a database over values {a, b} ∪ {0,1}.
func randomMicroDB(rng *rand.Rand) *relation.Database {
	r, f := microSchema()
	d := relation.NewDatabase(r, f)
	vals := []string{"a", "b"}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d.MustAdd("R", vals[rng.Intn(2)], vals[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		d.MustAdd("F", []string{"0", "1"}[rng.Intn(2)])
	}
	return d
}

// microQueries is a pool of CQ/UCQ queries over the micro schema.
func microQueries() []qlang.Query {
	r := func(a, b query.Term) query.RelAtom { return query.Atom("R", a, b) }
	return []qlang.Query{
		qlang.FromCQ(cq.New("q1", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("y"))})),
		qlang.FromCQ(cq.New("q2", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("x"))})),
		qlang.FromCQ(cq.New("q3", []query.Term{v("x"), v("z")},
			[]query.RelAtom{r(v("x"), v("y")), r(v("y"), v("z"))})),
		qlang.FromCQ(cq.New("q4", []query.Term{v("x")},
			[]query.RelAtom{r(v("x"), v("y"))}, query.Neq(v("x"), v("y")))),
		qlang.FromCQ(cq.New("q5", []query.Term{v("p")},
			[]query.RelAtom{query.Atom("F", v("p"))})),
		qlang.FromCQ(cq.New("q6", []query.Term{v("x")},
			[]query.RelAtom{r(v("x"), v("y"))}, query.Eq(v("y"), c("a")))),
		qlang.FromUCQ(cq.Union("u1",
			cq.New("u1a", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("y"))}, query.Eq(v("y"), c("a"))),
			cq.New("u1b", []query.Term{v("x")}, []query.RelAtom{r(v("y"), v("x"))}, query.Eq(v("y"), c("b"))),
		)),
	}
}

// microConstraintSets is a pool of constraint sets over the micro
// schema, paired with master data.
func microConstraintSets() []struct {
	name string
	v    *cc.Set
	dm   *relation.Database
} {
	mkDM := func(vals ...string) *relation.Database {
		m := relation.NewDatabase(relation.NewSchema("M", relation.Attr("x")))
		for _, x := range vals {
			m.MustAdd("M", x)
		}
		return m
	}
	fd := &cc.FD{Name: "fd", Rel: "R", From: []int{0}, To: []int{1}}
	selfDenial := &cc.Denial{
		Name:  "noSelf",
		Atoms: []query.RelAtom{query.Atom("R", v("x"), v("y"))},
		Conds: []query.EqAtom{query.Eq(v("x"), v("y"))},
	}
	return []struct {
		name string
		v    *cc.Set
		dm   *relation.Database
	}{
		{"empty", cc.NewSet(), mkDM()},
		{"ind-col0", cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0))), mkDM("a", "b")},
		{"ind-col0-small", cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0))), mkDM("a")},
		{"fd", cc.NewSet(fd.ToCCs(2)...), mkDM()},
		{"denial-self", cc.NewSet(selfDenial.ToCC()), mkDM()},
		{"atmost1", cc.NewSet(cc.AtMostK("k1", "R", 2, []int{0}, 1, 1)), mkDM()},
		{"fd+ind", func() *cc.Set {
			s := cc.NewSet(fd.ToCCs(2)...)
			s.Add(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0)))
			return s
		}(), mkDM("a", "b")},
	}
}

// TestRCDPAgainstOracle compares the exact RCDP decider, at Workers 1
// and 2, with the bounded brute-force oracle on enumerated random
// instances.
func TestRCDPAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := microQueries()
	sets := microConstraintSets()
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 4}

	trials := 0
	for trial := 0; trial < 400; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue // not partially closed; RCDP precondition fails
		}
		trials++
		oracle, err := BoundedRCDPCtx(context.Background(), q, d, cs.dm, cs.v, opts)
		if err != nil {
			t.Fatalf("trial %d (%s): oracle: %v", trial, cs.name, err)
		}
		for _, workers := range []int{1, 2} {
			exact, err := (&Checker{Workers: workers}).RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, cs.name, err)
			}
			if exact.Verdict != oracle.Verdict {
				t.Fatalf("trial %d (%s, query %s, workers %d): exact complete=%v but oracle incomplete=%v\nD:\n%v\nexact ext: %v\noracle ext: %v",
					trial, cs.name, q, workers, exact.Verdict == VerdictComplete, oracle.Verdict == VerdictIncomplete, d, exact.Extension, oracle.Extension)
			}
		}
	}
	if trials < 150 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// TestRCDPHeadCutAgainstOracle runs the exact RCDP decider against the
// bounded oracle on databases whose Q(D) answers some candidate heads
// but not all, so the answered-head cut fires on some branches of a
// search while others still reach their leaves. A cut that fired on an
// unanswered head would drop the witnesses below it and turn
// Incomplete verdicts Complete.
func TestRCDPHeadCutAgainstOracle(t *testing.T) {
	dbs := [][]string{
		{"R a b"},
		{"R a a", "R b a"},
		{"R b b", "F 0"},
		{"R a b", "R b a", "F 1"},
		{"R a a", "R a b", "F 0", "F 1"},
	}
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 4}
	mixed := 0
	for _, facts := range dbs {
		r, f := microSchema()
		d := relation.NewDatabase(r, f)
		for _, fact := range facts {
			fs := strings.Fields(fact)
			d.MustAdd(fs[0], fs[1:]...)
		}
		for _, cs := range microConstraintSets() {
			if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
				continue
			}
			for _, q := range microQueries() {
				oracle, err := BoundedRCDPCtx(context.Background(), q, d, cs.dm, cs.v, opts)
				if err != nil {
					t.Fatalf("%v/%s/%s: oracle: %v", facts, cs.name, q, err)
				}
				var seq *RCDPResult
				for _, workers := range []int{1, 2} {
					cuts := obs.HeadCuts.Value()
					exact, err := (&Checker{Workers: workers}).RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
					if err != nil {
						t.Fatalf("%v/%s/%s: %v", facts, cs.name, q, err)
					}
					if exact.Verdict != oracle.Verdict {
						t.Fatalf("%v/%s/%s workers=%d: exact %v, oracle %v (oracle ext %v)",
							facts, cs.name, q, workers, exact.Verdict, oracle.Verdict, oracle.Extension)
					}
					if workers == 1 {
						seq = exact
						if obs.HeadCuts.Value() > cuts && exact.Stats.Valuations > 0 {
							mixed++
						}
					} else if !sameRCDP(seq, exact) {
						t.Fatalf("%v/%s/%s: Workers=2 witness differs from Workers=1", facts, cs.name, q)
					}
				}
			}
		}
	}
	// Cut and uncut branches in one search must be common here, or the
	// test would not exercise the boundary between them.
	t.Logf("%d Workers=1 checks both cut a branch and reached a leaf", mixed)
	if mixed < 20 {
		t.Fatalf("only %d checks both cut a branch and reached a leaf", mixed)
	}
}

// TestRCQPINDsAgainstOracle cross-validates the Proposition 4.3 decider:
// when it answers yes with a witness, the witness must survive the
// bounded oracle; when it answers no, the bounded witness search must
// fail too.
func TestRCQPINDsAgainstOracle(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 3}

	queries := microQueries()
	for _, cs := range microConstraintSets() {
		if !cs.v.AllINDs() {
			continue
		}
		for _, q := range queries {
			res, err := RCQPCtx(context.Background(), q, cs.dm, cs.v, schemas)
			if err != nil {
				t.Fatalf("%s/%s: %v", cs.name, q, err)
			}
			switch res.Status {
			case Yes:
				if res.Witness != nil {
					or, err := BoundedRCDPCtx(context.Background(), q, res.Witness, cs.dm, cs.v, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", cs.name, q, err)
					}
					if or.Verdict == VerdictIncomplete {
						t.Fatalf("%s/%s: witness rejected by oracle; ext %v", cs.name, q, or.Extension)
					}
				}
			case No:
				br, err := BoundedRCQPCtx(context.Background(), q, cs.dm, cs.v, schemas, 2, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if br.Verdict == VerdictComplete {
					t.Fatalf("%s/%s: decider says no but oracle found witness\n%v", cs.name, q, br.Witness)
				}
			default:
				t.Fatalf("%s/%s: IND path must be exact, got unknown", cs.name, q)
			}
		}
	}
}

// TestRCQPGeneralAgainstOracle checks the certificate search against the
// bounded witness search for the non-IND constraint pools: whenever the
// bounded oracle finds a small witness, the certificate search must
// answer yes, and vice versa every yes witness must survive the oracle.
func TestRCQPGeneralAgainstOracle(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 3}

	for _, cs := range microConstraintSets() {
		if cs.v.AllINDs() {
			continue
		}
		for _, q := range microQueries() {
			res, err := RCQPCtx(context.Background(), q, cs.dm, cs.v, schemas)
			if err != nil {
				t.Fatalf("%s/%s: %v", cs.name, q, err)
			}
			if res.Status == Yes && res.Witness != nil {
				or, err := BoundedRCDPCtx(context.Background(), q, res.Witness, cs.dm, cs.v, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if or.Verdict == VerdictIncomplete {
					t.Fatalf("%s/%s: yes-witness rejected by oracle (ext %v)", cs.name, q, or.Extension)
				}
			}
			if res.Status != Yes {
				br, err := BoundedRCQPCtx(context.Background(), q, cs.dm, cs.v, schemas, 1, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if br.Verdict == VerdictComplete {
					t.Fatalf("%s/%s: decider says %v but bounded search found 1-tuple witness\n%v",
						cs.name, q, res.Status, br.Witness)
				}
			}
		}
	}
}
