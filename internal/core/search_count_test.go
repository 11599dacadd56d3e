package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/reductions"
	"repro/internal/sat"
)

// forallExistsCNF draws a 3-CNF over n variables with n−2 clauses, the
// shape and draw order of the ∀∃-3SAT RCDP instances of relperf's
// hard-search workload (and of cq.TestForallExistsAnswerJoinRows).
func forallExistsCNF(rng *rand.Rand, n int) *sat.CNF {
	f := sat.NewCNF(n)
	for i := 0; i < n-2; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(rng.Intn(n) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// TestForallExistsSearchValuations pins the complete valuations the
// RCDP search reaches on the Theorem 3.6 reduction: 40 seed-1 ∀∃-3SAT
// instances per size (X = the first n/2 variables), summed, at
// Workers=1. The head x1..x(n/2) fills the first slots, and Q(D)
// answers all but the falsifying X assignments, so the answered-head
// cut stops almost every walk there. Without the cut the search reaches
// 8,260 valuations at n = 8 and 16,243 at n = 10, and the head test
// rejects all but a few dozen of them at the leaves.
func TestForallExistsSearchValuations(t *testing.T) {
	const instances = 40
	for _, tc := range []struct {
		n, want int
	}{
		{8, 24},  // 8,260 without the cut
		{10, 38}, // 16,243 without the cut
	} {
		rng := rand.New(rand.NewSource(1))
		ck := &Checker{Workers: 1}
		total := 0
		for i := 0; i < instances; i++ {
			inst, err := reductions.ForallExistsToRCDP(forallExistsCNF(rng, tc.n), tc.n/2)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ck.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
			if err != nil {
				t.Fatal(err)
			}
			total += r.Stats.Valuations
		}
		t.Logf("n = %d: %d valuations over %d instances", tc.n, total, instances)
		if total != tc.want {
			t.Errorf("n = %d: RCDP search reached %d valuations over %d instances, want %d", tc.n, total, instances, tc.want)
		}
	}
}
