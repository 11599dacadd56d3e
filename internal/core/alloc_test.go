package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
)

// Allocation guard for the valuation search. The string-keyed engine
// spent 136,757 allocations on the ∀∃-3SAT n=8 instance of
// BenchmarkRCDP_CQ_INDs_ForallExists (a map binding, a ground tuple and
// a string key per search node); the id-based engine allocates per
// search, not per node. A per-node allocation that creeps back trips
// the bound below long before a benchmark run would notice.
const (
	forallExists8Allocs       = 1084   // allocs/op of the id-based engine
	forallExists8ParentAllocs = 136757 // allocs/op of the string-keyed engine
)

func TestValuationSearchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the n=8 reduction instance")
	}
	inst, err := reductions.ForallExistsToRCDP(lcgCNF(8, 10, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checker{Workers: 1}
	ctx := context.Background()
	// Warm the process-wide caches (dictionary order, p(Dm) memos) so
	// the measurement sees the steady state.
	if _, err := ck.RCDPCtx(ctx, inst.Q, inst.D, inst.Dm, inst.V); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ck.RCDPCtx(ctx, inst.Q, inst.D, inst.Dm, inst.V); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(min(2*forallExists8Allocs, forallExists8ParentAllocs/5))
	t.Logf("%.0f allocs per RCDPCtx (limit %.0f)", allocs, limit)
	if allocs > limit {
		t.Fatalf("RCDPCtx on forall-exists n=8 allocates %.0f times per check, limit %.0f", allocs, limit)
	}
}

// TestRCQPValuationBudget pins that RCQP's E3/E4 path honours
// Budget.MaxValuations in both of its searches and reports their work.
func TestRCQPValuationBudget(t *testing.T) {
	// Unsatisfiable: the verdict search finds no valuation and the
	// witness construction prunes the whole truth-value product, so
	// both run to completion quickly at any size.
	for _, n := range []int{10, 16} {
		inst, err := reductions.ThreeSATToRCQP(unsat3SAT(n))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("n=%d: unsatisfiable RCQP took %v", n, elapsed)
		}
		if res.Status != Yes || res.Witness == nil {
			t.Fatalf("n=%d: want Yes with a witness, got %v (witness %v)", n, res.Status, res.Witness != nil)
		}
	}

	// Satisfiable: the IND pruner is exact for all-IND V, so the first
	// complete valuation the E3/E4 search reaches is the No witness. A
	// budget of one suffices on both engines and is all that is charged.
	phi := lcgCNF(8, 24, 25)
	if _, ok := phi.Solve(); !ok {
		t.Fatal("fixture formula is unsatisfiable")
	}
	inst, err := reductions.ThreeSATToRCQP(phi)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		qp := &QPChecker{Checker: Checker{Workers: workers, Budget: Budget{MaxValuations: 1}}}
		res, err := qp.RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != No || res.Stats.Valuations != 1 {
			t.Errorf("workers=%d: want No after 1 valuation, got %v/%v after %d", workers, res.Status, res.Reason, res.Stats.Valuations)
		}
	}

	// The witness construction charges the same cap. Qc is bounded by
	// its IND, so no E3/E4 search runs and the witness needs one
	// valuation per master cid: a budget of one keeps the Yes and
	// drops the witness, a budget of two builds it.
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dm := relation.NewDatabase(relation.NewSchema("DCust", relation.Attr("cid")))
	dm.MustAdd("DCust", "c1")
	dm.MustAdd("DCust", "c2")
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))
	qc := qlang.FromCQ(cq.New("Qc", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))
	for _, k := range []int{1, 2} {
		qp := &QPChecker{Checker: Checker{Workers: 1, Budget: Budget{MaxValuations: k}}}
		res, err := qp.RCQPCtx(context.Background(), qc, dm, vset, schemas)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Yes || (res.Witness != nil) != (k == 2) {
			t.Errorf("k=%d: got %v with witness %v", k, res.Status, res.Witness != nil)
		}
		if res.Stats.Valuations == 0 || res.Stats.Valuations > k {
			t.Errorf("k=%d: witness construction reported %d valuations", k, res.Stats.Valuations)
		}
	}
}
