package reductions

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tiling"
)

// TestTilingWitnessComplete2x2 validates the Theorem 4.5(2) reduction's
// yes side at n = 1: the witness built from a solver tiling is complete
// for the reduction's query.
func TestTilingWitnessComplete2x2(t *testing.T) {
	in := tiling.New(2, 1)
	in.AllowV(0, 1)
	in.AllowV(1, 0)
	in.AllowH(0, 1)
	in.AllowH(1, 0)
	g, ok := in.Solve()
	if !ok {
		t.Fatal("checkerboard must be solvable")
	}
	inst, err := TilingToRCQP(in)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TilingWitness(inst, in, g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RCDPCtx(context.Background(), inst.Q, w, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictComplete {
		t.Fatalf("tiling witness must be complete; extension %v", r.Extension)
	}
}

// TestTilingUnsolvableIncomplete validates the no side at n = 1: with
// no tiling, candidate databases — including the empty one and one
// storing an invalid trace — stay incomplete (R_b can always grow).
func TestTilingUnsolvableIncomplete(t *testing.T) {
	in := tiling.New(2, 1) // t0 has no right neighbour: unsolvable
	in.AllowV(0, 1)
	in.AllowV(1, 1)
	in.AllowH(1, 1)
	if in.Solvable() {
		t.Fatal("instance should be unsolvable")
	}
	inst, err := TilingToRCQP(in)
	if err != nil {
		t.Fatal(err)
	}
	var ss []*relation.Schema
	for _, s := range inst.Schemas {
		ss = append(ss, s)
	}
	empty := relation.NewDatabase(ss...)
	r, err := core.RCDPCtx(context.Background(), inst.Q, empty, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == core.VerdictComplete {
		t.Fatal("empty database must be incomplete when no tiling exists")
	}
	// A database with only the bound tuple is still incomplete: without
	// a stored tiling the φ constraint never fires, so R_b stays open.
	d2 := empty.Clone()
	d2.MustAdd("Rb", "bound")
	r, err = core.RCDPCtx(context.Background(), inst.Q, d2, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == core.VerdictComplete {
		t.Fatal("bound-only database must be incomplete when no tiling exists")
	}
}

// TestTilingCorruptTraceRejected: storing an adjacency-violating square
// breaks partial closure, confirming the well-formedness constraints.
func TestTilingCorruptTraceRejected(t *testing.T) {
	in := tiling.New(2, 1)
	in.AllowV(0, 1)
	in.AllowV(1, 0)
	in.AllowH(0, 1)
	in.AllowH(1, 0)
	inst, err := TilingToRCQP(in)
	if err != nil {
		t.Fatal(err)
	}
	var ss []*relation.Schema
	for _, s := range inst.Schemas {
		ss = append(ss, s)
	}
	d := relation.NewDatabase(ss...)
	// (0,0,0,0) violates both compatibility relations.
	d.MustAdd("T1", "h1", "tile0", "tile0", "tile0", "tile0", "tile0")
	ok, err := inst.V.Satisfied(d, inst.Dm)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("incompatible square accepted by V")
	}
	// Wrong Z is also rejected.
	d2 := relation.NewDatabase(ss...)
	d2.MustAdd("T1", "h1", "tile0", "tile1", "tile1", "tile0", "tile1")
	ok, err = inst.V.Satisfied(d2, inst.Dm)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("square with Z ≠ top-left tile accepted by V")
	}
}

// TestTilingWitnessComplete4x4 validates the reduction at n = 2, where
// the hypertile glue machinery is actually exercised.
func TestTilingWitnessComplete4x4(t *testing.T) {
	in := tiling.New(2, 2)
	in.AllowV(0, 1)
	in.AllowV(1, 0)
	in.AllowH(0, 1)
	in.AllowH(1, 0)
	g, ok := in.Solve()
	if !ok {
		t.Fatal("4x4 checkerboard must be solvable")
	}
	inst, err := TilingToRCQP(in)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TilingWitness(inst, in, g)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := inst.V.Satisfied(w, inst.Dm); err != nil || !ok {
		t.Fatalf("4x4 witness not partially closed: %v %v", ok, err)
	}
	r, err := core.RCDPCtx(context.Background(), inst.Q, w, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictComplete {
		t.Fatalf("4x4 tiling witness must be complete; extension %v", r.Extension)
	}
}

// TestTilingRandom cross-validates solvability against witness
// completeness on random 2x2 instances.
func TestTilingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		in := tiling.New(2, 1)
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if rng.Intn(2) == 0 {
					in.AllowV(tiling.Tile(a), tiling.Tile(b))
				}
				if rng.Intn(2) == 0 {
					in.AllowH(tiling.Tile(a), tiling.Tile(b))
				}
			}
		}
		inst, err := TilingToRCQP(in)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := in.Solve(); ok {
			w, err := TilingWitness(inst, in, g)
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.RCDPCtx(context.Background(), inst.Q, w, inst.Dm, inst.V)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != core.VerdictComplete {
				t.Fatalf("trial %d: witness incomplete; ext %v", trial, r.Extension)
			}
		}
	}
}

// TestFOSatReductions validates the Theorem 3.1(1,2)/4.1(2) reductions
// through the bounded procedures with known-satisfiability FO queries.
func TestFOSatReductions(t *testing.T) {
	x, y := query.Var("x"), query.Var("y")
	// Satisfiable: ∃xy E(x,y) ∧ x ≠ y.
	satQ := fo.NewQuery("q", nil,
		fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNeq(x, y))))
	// Unsatisfiable: ∃xy (E(x,y) ∧ ¬E(x,y)).
	unsatQ := fo.NewQuery("q", nil,
		fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNot(fo.FAtom("E", x, y)))))
	opts := core.BoundedOpts{MaxAdd: 1, FreshValues: 2}

	for _, tc := range []struct {
		name string
		q    *fo.Query
		sat  bool
	}{{"sat", satQ, true}, {"unsat", unsatQ, false}} {
		// Theorem 3.1(1): L_Q = FO.
		inst, err := FOSatToRCDP(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.BoundedRCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (r.Verdict == core.VerdictIncomplete) != tc.sat {
			t.Fatalf("%s: 3.1(1) incomplete=%v want %v", tc.name, r.Verdict == core.VerdictIncomplete, tc.sat)
		}
		// Theorem 3.1(2): L_C = FO.
		inst, err = FOSatToRCDPviaCC(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		r, err = core.BoundedRCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (r.Verdict == core.VerdictIncomplete) != tc.sat {
			t.Fatalf("%s: 3.1(2) incomplete=%v want %v", tc.name, r.Verdict == core.VerdictIncomplete, tc.sat)
		}
		// Theorem 4.1(2): RCQP with the FO constraint. For unsat q the
		// empty database is complete (bounded search finds it); for sat
		// q no small witness exists.
		qinst, err := FOSatToRCQP(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		// Exposing incompleteness of a candidate takes two tuples here
		// (an E pair plus an Ru tuple), so the inner bound must be 2.
		br, err := core.BoundedRCQPCtx(context.Background(), qinst.Q, qinst.Dm, qinst.V, qinst.Schemas, 1,
			core.BoundedOpts{MaxAdd: 2, FreshValues: 2})
		if err != nil {
			t.Fatal(err)
		}
		if (br.Verdict == core.VerdictComplete) == tc.sat {
			t.Fatalf("%s: 4.1(2) witness found=%v want %v", tc.name, br.Verdict == core.VerdictComplete, !tc.sat)
		}
	}
}
