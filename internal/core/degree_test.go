package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cc"
	"repro/internal/mdm"
	"repro/internal/relation"
)

// TestDegreeExactComplete: a database complete for the query scores
// exactly 1.0 with a collapsed confidence interval.
func TestDegreeExactComplete(t *testing.T) {
	k := 3
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, k))
	dm := emptyMaster()
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	d.MustAdd("Supt", "e0", "s", "c2")
	d.MustAdd("Supt", "e0", "s", "c3")

	res, err := DegreeCtx(context.Background(), q2(), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Verdict != VerdictComplete {
		t.Fatalf("want exact complete, got exact=%v verdict=%v", res.Exact, res.Verdict)
	}
	if res.Degree != 1.0 || res.Lo != 1.0 || res.Hi != 1.0 {
		t.Fatalf("complete database must score degree 1.0 [1,1], got %v [%v,%v]", res.Degree, res.Lo, res.Hi)
	}
	if res.Counterexamples != 0 {
		t.Fatalf("complete database reported %d counterexamples", res.Counterexamples)
	}
	if res.Candidates == 0 {
		t.Fatal("the k-answer instance has a non-trivial candidate space; Candidates must be > 0")
	}
}

// TestDegreeExactIncomplete: an incomplete database scores strictly
// below 1.0, deterministically.
func TestDegreeExactIncomplete(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 3))
	dm := emptyMaster()
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")

	res, err := DegreeCtx(context.Background(), q2(), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Verdict != VerdictIncomplete {
		t.Fatalf("want exact incomplete, got exact=%v verdict=%v", res.Exact, res.Verdict)
	}
	if !(res.Degree >= 0 && res.Degree < 1) {
		t.Fatalf("incomplete degree must be in [0,1), got %v", res.Degree)
	}
	if res.Lo != res.Degree || res.Hi != res.Degree {
		t.Fatalf("exact runs collapse the interval, got [%v,%v] around %v", res.Lo, res.Hi, res.Degree)
	}
	if res.Counterexamples == 0 || res.Counterexamples > res.Candidates {
		t.Fatalf("implausible counts: %d counterexamples of %d candidates", res.Counterexamples, res.Candidates)
	}
	// Determinism: the enumeration is sequential and ordered.
	again, err := DegreeCtx(context.Background(), q2(), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if again.Degree != res.Degree || again.Candidates != res.Candidates || again.Counterexamples != res.Counterexamples {
		t.Fatalf("degree not deterministic: %+v vs %+v", res, again)
	}
}

// TestDegreeCompleteIffLaw: on exact runs, degree = 1.0 exactly
// characterizes the Complete RCDP verdict — across CRM scenarios of
// varying completeness and the sequential and parallel checker.
func TestDegreeCompleteIffLaw(t *testing.T) {
	for _, completeness := range []float64{1.0, 0.6, 0.2} {
		cfg := mdm.DefaultConfig()
		cfg.Completeness = completeness
		cfg.SaturateSupport = true
		s := mdm.Generate(cfg)
		vset := cc.NewSet(mdm.Phi0Cid(), mdm.CidIND(), mdm.ManageIND())
		for _, workers := range []int{1, 8} {
			for _, tc := range []struct {
				name string
			}{{"Q0"}, {"Q2"}} {
				q := mdm.Q0("908")
				if tc.name == "Q2" {
					q = mdm.Q2("e00")
				}
				ck := &Checker{Workers: workers}
				rc, err := ck.RCDPCtx(context.Background(), q, s.D, s.Dm, vset)
				if err != nil {
					t.Fatalf("comp=%v %s: rcdp: %v", completeness, tc.name, err)
				}
				dg, err := ck.DegreeCtx(context.Background(), q, s.D, s.Dm, vset)
				if err != nil {
					t.Fatalf("comp=%v %s: degree: %v", completeness, tc.name, err)
				}
				if !dg.Exact {
					t.Fatalf("unbudgeted degree run must be exact")
				}
				if (dg.Degree == 1.0) != (rc.Verdict == VerdictComplete) {
					t.Fatalf("comp=%v %s workers=%d: degree=%v but verdict=%v",
						completeness, tc.name, workers, dg.Degree, rc.Verdict)
				}
				if dg.Verdict == VerdictComplete != (rc.Verdict == VerdictComplete) {
					t.Fatalf("degree verdict %v disagrees with rcdp %v", dg.Verdict, rc.Verdict)
				}
				if dg.Degree < 0 || dg.Degree > 1 || dg.Lo > dg.Degree || dg.Hi < dg.Degree {
					t.Fatalf("malformed degree %v [%v,%v]", dg.Degree, dg.Lo, dg.Hi)
				}
			}
		}
	}
}

// TestDegreeSampledBudget: a valuation budget turns the run into a
// prefix sample with a widened Wilson interval.
func TestDegreeSampledBudget(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.Completeness = 0.5
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0Cid(), mdm.CidIND(), mdm.ManageIND())
	q := mdm.Q0("908")

	exact, err := DegreeCtx(context.Background(), q, s.D, s.Dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("unbudgeted run must be exact")
	}
	budget := exact.Candidates / 10
	if budget < 1 {
		t.Skipf("candidate space too small to sample (%d)", exact.Candidates)
	}
	ck := &Checker{Budget: Budget{MaxValuations: budget}}
	res, err := ck.DegreeCtx(context.Background(), q, s.D, s.Dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("budget %d of %d candidates must not be exact", budget, exact.Candidates)
	}
	if res.Reason != ReasonValuations {
		t.Fatalf("want valuations reason, got %v", res.Reason)
	}
	if res.Candidates > budget {
		t.Fatalf("sampled %d candidates with a per-disjunct budget of %d (single-disjunct query)", res.Candidates, budget)
	}
	if res.Lo > res.Degree || res.Hi < res.Degree || res.Lo < 0 || res.Hi > 1 {
		t.Fatalf("malformed interval %v [%v,%v]", res.Degree, res.Lo, res.Hi)
	}
	if res.Counterexamples == 0 && res.Verdict != VerdictUnknown {
		t.Fatalf("sampled run without counterexamples must stay unknown, got %v", res.Verdict)
	}
	if res.Counterexamples > 0 && res.Verdict != VerdictIncomplete {
		t.Fatalf("any seen counterexample decides incomplete, got %v", res.Verdict)
	}
}

// TestDegreeGovernanceStops: cross-cutting budgets and pre-cancelled
// contexts degrade to a vacuous estimate, not an error.
func TestDegreeGovernanceStops(t *testing.T) {
	cfg := mdm.DefaultConfig()
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0Cid())
	q := mdm.Q0("908")

	ck := &Checker{Budget: Budget{MaxJoinRows: 5}}
	res, err := ck.DegreeCtx(context.Background(), q, s.D, s.Dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Reason != ReasonJoinRows {
		t.Fatalf("want inexact join-rows stop, got exact=%v reason=%v", res.Exact, res.Reason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = DegreeCtx(ctx, q, s.D, s.Dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Reason != ReasonCancelled {
		t.Fatalf("want inexact cancelled stop, got exact=%v reason=%v", res.Exact, res.Reason)
	}
	if res.Candidates != 0 || res.Lo != 0 || res.Hi != 1 {
		t.Fatalf("pre-cancelled run must report the vacuous estimate, got %+v", res)
	}
}

// TestWilsonInterval pins the interval arithmetic: known values and
// the clamping invariants.
func TestWilsonInterval(t *testing.T) {
	lo, hi := wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty sample must be vacuous, got [%v,%v]", lo, hi)
	}
	lo, hi = wilson(10, 10)
	if lo <= 0.6 || hi != 1 {
		t.Fatalf("10/10 Wilson interval off: [%v,%v]", lo, hi)
	}
	lo, hi = wilson(50, 100)
	if math.Abs(lo-0.4038) > 0.001 || math.Abs(hi-0.5962) > 0.001 {
		t.Fatalf("50/100 Wilson interval off: [%v,%v]", lo, hi)
	}
	for _, tc := range []struct{ k, n int }{{0, 7}, {3, 9}, {9, 9}, {1, 1000}} {
		lo, hi := wilson(tc.k, tc.n)
		p := float64(tc.k) / float64(tc.n)
		if lo < 0 || hi > 1 || lo > p || hi < p {
			t.Fatalf("wilson(%d,%d) = [%v,%v] violates invariants around %v", tc.k, tc.n, lo, hi, p)
		}
	}
}
