package reductions

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sat"
)

func randomCNF(rng *rand.Rand, nVars, nClauses int) *sat.CNF {
	f := sat.NewCNF(nVars)
	for i := 0; i < nClauses; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(rng.Intn(nVars) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// TestForallExistsReduction cross-validates the Theorem 3.6 reduction:
// the RCDP verdict on the constructed instance must equal the QBF
// ground truth, across random ∀∃-3SAT instances.
func TestForallExistsReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(3) // total variables 2..4
		phi := randomCNF(rng, n, 1+rng.Intn(4))
		nX := 1 + rng.Intn(n-1)
		want := sat.ForallExists(phi, nX)

		inst, err := ForallExistsToRCDP(phi, nX)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r, err := core.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if (r.Verdict == core.VerdictComplete) != want {
			t.Fatalf("trial %d: RCDP complete=%v but ∀∃ = %v\nφ = %s (nX=%d)",
				trial, r.Verdict == core.VerdictComplete, want, phi, nX)
		}
	}
}

// TestForallExistsKnown pins two hand-checked instances.
func TestForallExistsKnown(t *testing.T) {
	// ∀x1 ∃x2 (x1 ∨ x2) ∧ (¬x1 ∨ ¬x2): true (x2 = ¬x1).
	phiTrue := sat.NewCNF(2, sat.Clause{1, 2}, sat.Clause{-1, -2})
	inst, err := ForallExistsToRCDP(phiTrue, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictComplete {
		t.Fatalf("true sentence must yield a complete database; extension %v", r.Extension)
	}
	// ∀x1 ∃x2 (x1): false.
	phiFalse := sat.NewCNF(2, sat.Clause{1})
	inst, err = ForallExistsToRCDP(phiFalse, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err = core.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == core.VerdictComplete {
		t.Fatal("false sentence must yield an incomplete database")
	}
	// The counterexample extension must include the R6 switch tuple (0).
	if r.Extension == nil || !r.Extension.Contains("R6", relation.T("0")) {
		t.Fatalf("counterexample must flip the R6 switch; extension %v", r.Extension)
	}
}

// TestThreeSATReduction cross-validates the Theorem 4.5(1) reduction:
// RCQ(Q, Dm, V) is empty iff φ is satisfiable, with the exact
// Proposition 4.3 decider on one side and DPLL on the other.
func TestThreeSATReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		phi := randomCNF(rng, n, 1+rng.Intn(3*n))
		_, satisfiable := phi.Solve()

		inst, err := ThreeSATToRCQP(phi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := core.RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch {
		case satisfiable && res.Status != core.No:
			t.Fatalf("trial %d: φ satisfiable but RCQP = %v\nφ = %s", trial, res.Status, phi)
		case !satisfiable && res.Status != core.Yes:
			t.Fatalf("trial %d: φ unsatisfiable but RCQP = %v\nφ = %s", trial, res.Status, phi)
		}
	}
}

// TestEFEReduction cross-validates the Corollary 4.6 reduction on the
// witness side: when ∃X∀Y∃Z ϕ holds, the witness database built from
// the X assignment must be complete; when it fails, the same shape of
// database must be incomplete for every X assignment.
func TestEFEReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nX, nY, nZ := 1, 1, 1
		if trial%3 == 0 {
			nY = 2
		}
		n := nX + nY + nZ
		phi := randomCNF(rng, n, 1+rng.Intn(4))
		inst, err := ExistsForallExistsToRCQP(phi, nX, nY)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		witnessX, holds := sat.ExistsWitness(phi, nX, nY)
		if holds {
			d := EFEWitness(inst, witnessX)
			r, err := core.RCDPCtx(context.Background(), inst.Q, d, inst.Dm, inst.V)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if r.Verdict != core.VerdictComplete {
				t.Fatalf("trial %d: ϕ true via X=%v but witness incomplete (ext %v)\nφ = %s",
					trial, witnessX, r.Extension, phi)
			}
		} else {
			// Every X assignment yields an incomplete database.
			for mask := 0; mask < (1 << nX); mask++ {
				assign := make(map[int]bool, nX)
				for i := 1; i <= nX; i++ {
					assign[i] = mask&(1<<(i-1)) != 0
				}
				d := EFEWitness(inst, assign)
				r, err := core.RCDPCtx(context.Background(), inst.Q, d, inst.Dm, inst.V)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if r.Verdict == core.VerdictComplete {
					t.Fatalf("trial %d: ϕ false but witness X=%v complete\nφ = %s", trial, assign, phi)
				}
			}
		}
	}
}

// TestDFASimulation validates the executable heart of Theorem 3.1(3):
// the FP query of the reduction, evaluated on the relational encoding
// of w, agrees with direct automaton simulation.
func TestDFASimulation(t *testing.T) {
	autos := map[string]*automata.DFA{
		"firstIsOne": func() *automata.DFA {
			a := automata.New(2, 0, 1)
			a.AddWild2(0, automata.Sym1, 1, automata.Advance)
			return a
		}(),
		"evenLength": func() *automata.DFA {
			a := automata.New(3, 0, 2)
			for _, s := range []automata.Symbol{automata.Sym0, automata.Sym1} {
				a.AddWild2(0, s, 1, automata.Advance)
				a.AddWild2(1, s, 0, automata.Advance)
			}
			a.AddWild2(0, automata.Epsilon, 2, automata.Stay)
			return a
		}(),
		"secondHeadMatch": func() *automata.DFA {
			a := automata.New(3, 0, 2)
			for _, s1 := range []automata.Symbol{automata.Sym0, automata.Sym1} {
				for _, s2 := range []automata.Symbol{automata.Sym0, automata.Sym1} {
					a.Add(0, s1, s2, 1, automata.Advance, automata.Stay)
				}
			}
			a.Add(1, automata.Sym0, automata.Sym0, 2, automata.Stay, automata.Stay)
			a.Add(1, automata.Sym1, automata.Sym1, 2, automata.Stay, automata.Stay)
			return a
		}(),
	}
	words := []string{"", "0", "1", "00", "01", "10", "11", "010", "110", "1011"}
	for name, a := range autos {
		for _, ws := range words {
			sym, err := automata.Word(ws)
			if err != nil {
				t.Fatal(err)
			}
			want := a.Accepts(sym)
			got, err := DFAQueryAcceptsEncodingCtx(context.Background(), a, sym)
			if err != nil {
				t.Fatalf("%s/%q: %v", name, ws, err)
			}
			if got != want {
				t.Fatalf("%s/%q: FP query = %v, simulator = %v", name, ws, got, want)
			}
		}
	}
}

// TestDFAQueryHonorsCancellation: the FP simulation under a context
// cancelled before it starts returns context.Canceled, not a verdict.
func TestDFAQueryHonorsCancellation(t *testing.T) {
	a := automata.New(2, 0, 1)
	a.Add(0, automata.Sym1, automata.Sym1, 1, automata.Advance, automata.Stay)
	sym, err := automata.Word("1011")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := DFAQueryAcceptsEncodingCtx(ctx, a, sym); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulation = %v, %v; want context.Canceled", got, err)
	}
}

// TestDFAWellFormedness: encodings of real strings satisfy V₁–V₃, and
// corrupt encodings violate them.
func TestDFAWellFormedness(t *testing.T) {
	v := wellFormedCCs()
	sym, _ := automata.Word("0110")
	d := automata.EncodeString(sym)
	if ok, err := v.Satisfied(d, nil); err != nil || !ok {
		t.Fatalf("valid encoding rejected: %v %v", ok, err)
	}
	// Position 0 carries symbol 0; marking it with P too overlaps P/P̄.
	bad := d.Clone()
	bad.MustAdd("P", "0")
	if ok, _ := v.Satisfied(bad, nil); ok {
		t.Fatal("P/Pbar overlap accepted")
	}
	// F not a function.
	bad2 := d.Clone()
	bad2.MustAdd("F", "0", "9")
	if ok, _ := v.Satisfied(bad2, nil); ok {
		t.Fatal("non-functional F accepted")
	}
	// Two self-loops.
	bad3 := d.Clone()
	bad3.MustAdd("F", "9", "9")
	if ok, _ := v.Satisfied(bad3, nil); ok {
		t.Fatal("two final positions accepted")
	}
}

// TestDFABoundedRCDP demonstrates the Theorem 3.1(3) statement on a
// bounded scale: the empty database is incomplete exactly when the
// automaton accepts some short word (an extension encoding it exists).
func TestDFABoundedRCDP(t *testing.T) {
	accepting := automata.New(2, 0, 1)
	accepting.Add(0, automata.Epsilon, automata.Epsilon, 1, automata.Stay, automata.Stay)
	inst, err := DFAToRCDP(accepting)
	if err != nil {
		t.Fatal(err)
	}
	// The empty word is accepted: its encoding is the single tuple
	// F(0,0), so a 1-tuple extension must be found.
	r, err := core.BoundedRCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V, core.BoundedOpts{MaxAdd: 1, FreshValues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictIncomplete {
		t.Fatal("accepting automaton: empty D must be incomplete")
	}
	dead := automata.New(2, 0, 1) // no transitions: L(A) = ∅
	inst, err = DFAToRCDP(dead)
	if err != nil {
		t.Fatal(err)
	}
	r, err = core.BoundedRCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V, core.BoundedOpts{MaxAdd: 1, FreshValues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == core.VerdictIncomplete {
		t.Fatal("empty-language automaton: empty D complete up to bound")
	}
}
