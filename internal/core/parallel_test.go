package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// The parallel engine's contract is that verdicts and witnesses are
// scheduling-independent and identical to the sequential engine's.
// These tests pin that contract: Workers=1 (strictly sequential) vs
// Workers=8 (branch fan-out — on any hardware, including a single CPU,
// the goroutines interleave and the raceCtl arbitration is exercised)
// must agree bit-for-bit on everything except the work counters.

// sameRCDP compares two RCDP results on the deterministic fields
// (everything but Valuations, which counts work, not outcome).
func sameRCDP(a, b *RCDPResult) bool {
	if a.Verdict != b.Verdict || a.Disjunct != b.Disjunct {
		return false
	}
	if (a.Extension == nil) != (b.Extension == nil) {
		return false
	}
	if a.Extension != nil && !a.Extension.Equal(b.Extension) {
		return false
	}
	if (a.NewTuple == nil) != (b.NewTuple == nil) {
		return false
	}
	if a.NewTuple != nil && tupleKey(a.NewTuple) != tupleKey(b.NewTuple) {
		return false
	}
	return true
}

// TestParallelRCDPMatchesSequential cross-validates the parallel RCDP
// engine against the sequential one on a few hundred random instances.
func TestParallelRCDPMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := microQueries()
	sets := microConstraintSets()
	seq := &Checker{Workers: 1}
	par := &Checker{Workers: 8}

	trials := 0
	for trial := 0; trial < 400 && trials < 250; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue
		}
		trials++
		sr, serr := seq.RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
		pr, perr := par.RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d (%s/%s): sequential err=%v parallel err=%v", trial, cs.name, q, serr, perr)
		}
		if serr != nil {
			continue
		}
		if !sameRCDP(sr, pr) {
			t.Fatalf("trial %d (%s/%s): engines disagree\nD:\n%v\nsequential: %+v\nparallel:   %+v",
				trial, cs.name, q, d, sr, pr)
		}
	}
	if trials < 150 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// TestParallelRCDPNaiveMatchesSequential repeats the cross-validation
// with pruning disabled, exercising the naive candidate enumeration
// under the parallel recursion too.
func TestParallelRCDPNaiveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := microQueries()
	sets := microConstraintSets()
	seq := &Checker{Naive: true, Workers: 1}
	par := &Checker{Naive: true, Workers: 8}

	trials := 0
	for trial := 0; trial < 120 && trials < 60; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue
		}
		trials++
		sr, serr := seq.RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
		pr, perr := par.RCDPCtx(context.Background(), q, d, cs.dm, cs.v)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d (%s/%s): sequential err=%v parallel err=%v", trial, cs.name, q, serr, perr)
		}
		if serr != nil {
			continue
		}
		if !sameRCDP(sr, pr) {
			t.Fatalf("trial %d (%s/%s): naive engines disagree\nD:\n%v\nsequential: %+v\nparallel:   %+v",
				trial, cs.name, q, d, sr, pr)
		}
	}
	if trials < 30 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// TestParallelRCQPMatchesSequential cross-validates RCQP across every
// micro query/constraint pair: the E3/E4 disjunct races, the E1 path,
// and the certificate search (fixpoint + parallel deepening) must all
// agree with the sequential engine, including the Candidates count,
// which the parallel deepening replays deterministically.
func TestParallelRCQPMatchesSequential(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	seq := &QPChecker{Checker: Checker{Workers: 1}}
	par := &QPChecker{Checker: Checker{Workers: 8}}

	for _, cs := range microConstraintSets() {
		for _, q := range microQueries() {
			sr, serr := seq.RCQPCtx(context.Background(), q, cs.dm, cs.v, schemas)
			pr, perr := par.RCQPCtx(context.Background(), q, cs.dm, cs.v, schemas)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s/%s: sequential err=%v parallel err=%v", cs.name, q, serr, perr)
			}
			if serr != nil {
				continue
			}
			if sr.Status != pr.Status || sr.Method != pr.Method || sr.Detail != pr.Detail {
				t.Fatalf("%s/%s: engines disagree\nsequential: %+v\nparallel:   %+v", cs.name, q, sr, pr)
			}
			if sr.Candidates != pr.Candidates {
				t.Fatalf("%s/%s: candidate counts diverge: sequential %d parallel %d",
					cs.name, q, sr.Candidates, pr.Candidates)
			}
			if (sr.Witness == nil) != (pr.Witness == nil) ||
				(sr.Witness != nil && !sr.Witness.Equal(pr.Witness)) {
				t.Fatalf("%s/%s: witnesses diverge\nsequential: %v\nparallel:   %v",
					cs.name, q, sr.Witness, pr.Witness)
			}
		}
	}
}

// TestParallelBudgetExceeded pins the MaxValuations semantics under
// parallelism: on instances the sequential engine abandons with an
// Unknown verdict for ReasonValuations (complete instances, so no
// witness can pre-empt the budget claim), the parallel engine must
// abandon too.
func TestParallelBudgetExceeded(t *testing.T) {
	// A tiny deterministic case first. F is empty and a denial forbids
	// any F tuple whose value starts an R tuple; R holds one for each
	// value of F's finite domain, so q5 is complete although neither
	// head value is answered: the search reaches both valuations (Q(D)
	// answers no head, so none is cut before its leaf, where V rejects
	// it) and exceeds a budget of 1. An F holding both values would
	// answer both heads and leave the cut search nothing to count. The
	// denial joins F's value with R, so each rejection needs that value
	// and its nogood skips no other valuation; a denial that reads F's
	// value nowhere else would refute both with the first.
	r, f := microSchema()
	d := relation.NewDatabase(r, f)
	d.MustAdd("R", "0", "a")
	d.MustAdd("R", "1", "a")
	noF := cc.NewSet((&cc.Denial{Name: "noF",
		Atoms: []query.RelAtom{query.Atom("R", v("p"), v("y")), query.Atom("F", v("p"))}}).ToCC())
	q5 := microQueries()[4]
	full, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), q5, d, nil, noF)
	if err != nil || full.Verdict != VerdictComplete || full.Stats.Valuations != 2 {
		t.Fatalf("want complete after 2 valuations, got %+v, %v", full, err)
	}
	for _, workers := range []int{1, 8} {
		ck := &Checker{Budget: Budget{MaxValuations: 1}, Workers: workers}
		if r, err := ck.RCDPCtx(context.Background(), q5, d, nil, noF); err != nil || r.Verdict != VerdictUnknown || r.Reason != ReasonValuations {
			t.Fatalf("workers=%d: want unknown/valuations, got %+v, %v", workers, r, err)
		}
	}

	// Then randomized: find complete instances whose full search costs
	// more than the budget and check both engines give up. MaxValuations
	// caps each disjunct separately, so only single-disjunct queries let
	// the cumulative Valuations counter predict budget exhaustion. The
	// answered-head cut leaves most complete micro instances at 3
	// valuations or fewer, so the draw runs up to 4000 trials to find
	// its 20.
	rng := rand.New(rand.NewSource(23))
	var queries []qlang.Query
	for _, q := range microQueries() {
		if len(q.Tableaux()) == 1 {
			queries = append(queries, q)
		}
	}
	sets := microConstraintSets()
	probe := &Checker{Workers: 1}
	checked := 0
	for trial := 0; trial < 4000 && checked < 20; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		db := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(db, cs.dm); err != nil || !ok {
			continue
		}
		full, err := probe.RCDPCtx(context.Background(), q, db, cs.dm, cs.v)
		if err != nil || full.Verdict != VerdictComplete || full.Stats.Valuations <= 3 {
			continue
		}
		checked++
		for _, workers := range []int{1, 8} {
			ck := &Checker{Budget: Budget{MaxValuations: 3}, Workers: workers}
			if r, err := ck.RCDPCtx(context.Background(), q, db, cs.dm, cs.v); err != nil || r.Verdict != VerdictUnknown || r.Reason != ReasonValuations {
				t.Fatalf("trial %d (%s/%s) workers=%d: want unknown/valuations, got %+v, %v",
					trial, cs.name, q, workers, r, err)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("too few budget-constrained instances: %d", checked)
	}
}

// TestRCDPValuationsAccounting pins the sequential accounting contract:
// Valuations accumulates across disjuncts in order, stopping at (and
// including) the disjunct that produced the witness — later disjuncts
// are never charged.
func TestRCDPValuationsAccounting(t *testing.T) {
	r, f := microSchema()
	d := relation.NewDatabase(r, f)
	d.MustAdd("F", "0")
	d.MustAdd("F", "1")

	// Disjunct 0 ranges over F's finite domain {0, 1}, both already
	// answered, so its whole (2-valuation) space is scanned without a
	// witness; disjunct 1 then finds one. The UCQ's count must be the
	// sum of the two single-disjunct counts.
	blocked := cq.New("blocked", []query.Term{v("p")},
		[]query.RelAtom{query.Atom("F", v("p"))})
	open := cq.New("open", []query.Term{v("x")},
		[]query.RelAtom{query.Atom("R", v("x"), v("y"))})
	u := qlang.FromUCQ(cq.Union("acct", blocked, open))

	ck := &Checker{Workers: 1}
	ur, err := ck.RCDPCtx(context.Background(), u, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Verdict == VerdictComplete || ur.Disjunct != 1 {
		t.Fatalf("want witness in disjunct 1, got %+v", ur)
	}
	br, err := ck.RCDPCtx(context.Background(), qlang.FromCQ(blocked), d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Verdict != VerdictComplete {
		t.Fatalf("blocked disjunct should be complete, got %+v", br)
	}
	or, err := ck.RCDPCtx(context.Background(), qlang.FromCQ(open), d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if or.Verdict == VerdictComplete {
		t.Fatalf("open disjunct should find a witness, got %+v", or)
	}
	if want := br.Stats.Valuations + or.Stats.Valuations; ur.Stats.Valuations != want {
		t.Fatalf("Valuations not cumulative: union %d, blocked %d + open %d = %d",
			ur.Stats.Valuations, br.Stats.Valuations, or.Stats.Valuations, want)
	}
	// Determinism of the counter itself (sequential engine).
	ur2, err := ck.RCDPCtx(context.Background(), u, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ur2.Stats.Valuations != ur.Stats.Valuations {
		t.Fatalf("sequential Valuations not reproducible: %d vs %d", ur.Stats.Valuations, ur2.Stats.Valuations)
	}
}

// TestParallelBoundedRCDPMatchesSequential cross-validates the bounded
// engine's parallel subset enumeration on the deterministic fields.
func TestParallelBoundedRCDPMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := microQueries()
	sets := microConstraintSets()

	trials := 0
	for trial := 0; trial < 60 && trials < 30; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue
		}
		trials++
		sr, serr := BoundedRCDPCtx(context.Background(), q, d, cs.dm, cs.v, BoundedOpts{MaxAdd: 2, FreshValues: 3, Workers: 1})
		pr, perr := BoundedRCDPCtx(context.Background(), q, d, cs.dm, cs.v, BoundedOpts{MaxAdd: 2, FreshValues: 3, Workers: 8})
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d (%s/%s): sequential err=%v parallel err=%v", trial, cs.name, q, serr, perr)
		}
		if serr != nil {
			continue
		}
		if sr.Verdict != pr.Verdict {
			t.Fatalf("trial %d (%s/%s): verdicts diverge: sequential %+v parallel %+v",
				trial, cs.name, q, sr, pr)
		}
		if sr.Verdict == VerdictIncomplete {
			if !sr.Extension.Equal(pr.Extension) {
				t.Fatalf("trial %d (%s/%s): extensions diverge\nsequential: %v\nparallel:   %v",
					trial, cs.name, q, sr.Extension, pr.Extension)
			}
			sk := ""
			if sr.NewTuple != nil {
				sk = tupleKey(sr.NewTuple)
			}
			pk := ""
			if pr.NewTuple != nil {
				pk = tupleKey(pr.NewTuple)
			}
			if sk != pk {
				t.Fatalf("trial %d (%s/%s): new tuples diverge: %q vs %q", trial, cs.name, q, sk, pk)
			}
		}
	}
	if trials < 15 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// tupleKey is a collision-free string encoding of a tuple, for keying
// test maps by tuple: each value is quoted.
func tupleKey(t relation.Tuple) string { return fmt.Sprintf("%q", []relation.Value(t)) }
