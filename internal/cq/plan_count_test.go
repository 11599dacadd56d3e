package cq_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/mdm"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/sat"
)

// forallExistsCNF draws a 3-CNF over n variables with n−2 clauses, the
// shape and draw order of the ∀∃-3SAT RCDP instances of relperf's
// hard-search workload.
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

// TestForallExistsAnswerJoinRows pins the join rows of Q(D), the
// answer set an RCDP check evaluates before its valuation search, on
// the Theorem 3.6 reduction: 40 seed-1 ∀∃-3SAT instances per size
// (X = the first n/2 variables), summed. The counts are exact, so any
// change to the plan order or to the cut moves them: a planner that
// takes the smallest 1/Distinct estimate over a template's bound
// columns instead of their product lets an unbound truth-value scan tie
// with a gate whose inputs are bound, and enumerates every Y assignment
// before the clause circuit.
func TestForallExistsAnswerJoinRows(t *testing.T) {
	const instances = 40
	for _, tc := range []struct {
		n    int
		want int64
	}{
		{8, 57191},   // mean 1,429.8; 121,752 under the min-based estimate
		{10, 209444}, // mean 5,236.1; 672,285 under the min-based estimate
	} {
		rng := rand.New(rand.NewSource(1))
		var rows int64
		for i := 0; i < instances; i++ {
			inst, err := reductions.ForallExistsToRCDP(forallExistsCNF(rng, tc.n), tc.n/2)
			if err != nil {
				t.Fatal(err)
			}
			g := query.NewGate(context.Background(), 0, 0)
			if _, err := cq.AnswerIDsGate(inst.Q.Tableaux(), inst.Q.Arity(), inst.D, g); err != nil {
				t.Fatal(err)
			}
			rows += g.Rows()
		}
		t.Logf("n = %d: %d rows over %d instances, mean %.1f", tc.n, rows, instances, float64(rows)/instances)
		if rows != tc.want {
			t.Errorf("n = %d: Q(D) join rows = %d over %d instances, want %d", tc.n, rows, instances, tc.want)
		}
	}
}

// TestAtMostKClosureJoinRows pins the join rows of the precondition
// (D, Dm) ⊨ φ₁ on a generated CRM-400 D, the check every serve-crm
// request with its own D pays before the search. φ₁ (Example 2.1,
// cc.AtMostK) self-joins four Supt atoms with pairwise-distinct
// customers and is empty on D, so its join runs to the end. The
// cardinality cut (card.go) settles each of the 120 Supt rows of the
// first atom at once, since no employee holds the four rows the other
// atoms need: 120 rows, where walking every permutation of each
// employee's rows charged 1,920.
func TestAtMostKClosureJoinRows(t *testing.T) {
	s := mdm.Generate(mdm.Config{
		Seed: 1, DomesticCustomers: 400, InternationalCustomers: 40, Employees: 40,
		SupportPerEmployee: 3, MaxSupport: 3, Completeness: 1, ManageDepth: 4,
	})
	g := query.NewGate(context.Background(), 0, 0)
	ok, err := mdm.Phi1(3).SatisfiedGate(s.D, s.Dm, g)
	if err != nil || !ok {
		t.Fatalf("φ₁ on the CRM-400 D: satisfied %v, %v; want satisfied", ok, err)
	}
	if rows := g.Rows(); rows != 120 {
		t.Errorf("φ₁ closure check on the CRM-400 D: %d join rows, want 120", rows)
	}
}
