package reductions

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sat"
)

// ExistsForallExistsToRCQP implements the Σ₃ᵖ-hardness reduction of
// Corollary 4.6: given an ∃X∀Y∃Z-3SAT instance ϕ (X = variables 1..nX,
// Y = nX+1..nX+nY, Z the rest) it produces an RCQP(CQ, CQ) instance
// with fixed master data and fixed containment constraints such that
// RCQ(Q, Dm, V) is nonempty iff ϕ evaluates to true.
//
// Per the proof: R₁–R₄ carry the Boolean domain and the ∨/∧/¬ truth
// tables (bounded by full INDs); R_X(a, id) stores one truth assignment
// for X with id a key, so a witness database pins a single X
// assignment; R_b(q, a) carries an attribute a over the infinite
// domain, with the CC q_b(a) :- R_b('1', a) ⊆ π(Rm_b) binding a to 0
// exactly on rows flagged q = 1. The query returns (Y, a) joining
// R_b(q, a) on the computed value q of ∃Z ψ(X, Y, Z).
//
// Deviation from the paper (documented in DESIGN.md): the proof sketch
// describes Q₁ as "returning q = 1 when ∃Z ψ holds and q = 0
// otherwise", a functional dependence that conjunctive projection of Z
// cannot express (a projected Z would make q = 0 derivable whenever
// *some* Z falsifies ψ, collapsing the reduction to ∃X∀Y∀Z). We
// materialize the inner ∃: the query computes ψ under every one of the
// 2^|Z| Z-assignments (as constants) and takes the R₂-chained
// disjunction, so q is exactly the truth value of ∃Z ψ. This preserves
// the reduction's correctness; the query grows exponentially in |Z|
// only, which the validation and benchmark instances keep small.
func ExistsForallExistsToRCQP(phi *sat.CNF, nX, nY int) (*RCQPInstance, error) {
	if err := phi.Validate(); err != nil {
		return nil, err
	}
	if nX < 0 || nY < 0 || nX+nY > phi.NumVars {
		return nil, fmt.Errorf("reductions: bad prefix sizes nX=%d nY=%d", nX, nY)
	}
	nZ := phi.NumVars - nX - nY
	if nZ > 12 {
		return nil, fmt.Errorf("reductions: |Z| = %d too large for the materialized inner ∃", nZ)
	}

	schemas := truthTableSchemas()
	rx := relation.NewSchema("RX", relation.Attr("a"), relation.Attr("id"))
	rb := relation.NewSchema("Rb", relation.Attr("q"), relation.Attr("a"))
	schemas = append(schemas, rx, rb)
	smap := make(map[string]*relation.Schema, len(schemas))
	for _, s := range schemas {
		smap[s.Name] = s
	}

	dm := relation.NewDatabase(append(masterTruthTableSchemas(),
		relation.NewSchema("Rmb", relation.Attr("a")))...)
	addMasterTruthTables(dm)
	dm.MustAdd("Rmb", "0")

	arities := map[string]int{"R1": 1, "R2": 3, "R3": 3, "R4": 2}
	v := fullINDs([][2]string{
		{"R1", "Rm1"}, {"R2", "Rm2"}, {"R3", "Rm3"}, {"R4", "Rm4"},
	}, arities)
	// π_a(RX) ⊆ Rm1: assignments are Boolean.
	v.Add(cc.NewIND("vxa", "RX", []int{0}, 2, cc.Proj("Rm1", 0)))
	// id is a key of RX.
	keyFD := &cc.FD{Name: "vkey", Rel: "RX", From: []int{1}, To: []int{0}}
	v.Add(keyFD.ToCCs(2)...)
	// q_b(a) :- Rb('1', a) ⊆ π(Rm_b): rows flagged q = 1 pin a to 0.
	qb := cq.New("qb", []query.Term{query.Var("a")},
		[]query.RelAtom{query.Atom("Rb", query.C("1"), query.Var("a"))})
	v.Add(cc.FromCQ("vb", qb, cc.Proj("Rmb", 0)))

	// Query Q(Y, a) = Q_x(X) ∧ Q₁(X, Y, q) ∧ R_b(q, a).
	varTerm := func(i int) query.Term { return query.Var(fmt.Sprintf("x%d", i)) }
	var atoms []query.RelAtom
	for i := 1; i <= nX; i++ {
		atoms = append(atoms, query.Atom("RX", varTerm(i), query.C(fmt.Sprintf("id%d", i))))
	}
	for i := nX + 1; i <= nX+nY; i++ {
		atoms = append(atoms, query.Atom("R1", varTerm(i)))
	}
	bc := newBoolCircuit("R2", "R3", "R4")
	var branchVals []query.Term
	for mask := 0; mask < (1 << nZ); mask++ {
		// Literal terms under this Z-assignment: Z variables become
		// constants, X/Y variables stay shared across branches.
		vt := func(i int) query.Term {
			if i > nX+nY {
				if mask&(1<<(i-nX-nY-1)) != 0 {
					return query.C("1")
				}
				return query.C("0")
			}
			return varTerm(i)
		}
		// Fresh negation cache per branch: constants under different
		// branches must not collide in the cache keyed by name.
		bc.negated = make(map[string]query.Term)
		clauseVals := make([]query.Term, len(phi.Clauses))
		for ci, cl := range phi.Clauses {
			clauseVals[ci] = bc.clause(cl, vt)
		}
		branchVals = append(branchVals, bc.conjunction(clauseVals))
	}
	qv := bc.disjunction(branchVals)
	a := query.Var("aOut")
	atoms = append(atoms, bc.atoms...)
	atoms = append(atoms, query.Atom("Rb", qv, a))

	head := make([]query.Term, 0, nY+1)
	for i := nX + 1; i <= nX+nY; i++ {
		head = append(head, varTerm(i))
	}
	head = append(head, a)
	q := cq.New("Qefe", head, atoms)
	if err := q.Validate(smap); err != nil {
		return nil, err
	}
	if err := v.Validate(dm); err != nil {
		return nil, err
	}
	return &RCQPInstance{Q: qlang.FromCQ(q), Dm: dm, V: v, Schemas: smap}, nil
}

// EFEWitness constructs the candidate witness database of the
// Corollary 4.6 proof for a given X assignment: the fixed truth tables,
// R_X pinning the assignment, and R_b = {(1, 0)}. When ∃X∀Y∃Z ϕ holds
// with this X witness, the database is complete for the reduction's
// query (verify with core.RCDPCtx).
func EFEWitness(inst *RCQPInstance, xAssign map[int]bool) *relation.Database {
	var ss []*relation.Schema
	for _, name := range []string{"R1", "R2", "R3", "R4", "RX", "Rb"} {
		ss = append(ss, inst.Schemas[name])
	}
	d := relation.NewDatabase(ss...)
	addTruthTables(d)
	for i, val := range xAssign {
		bit := "0"
		if val {
			bit = "1"
		}
		d.MustAdd("RX", bit, fmt.Sprintf("id%d", i))
	}
	d.MustAdd("Rb", "1", "0")
	return d
}
