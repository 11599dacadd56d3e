// Completeness and consistency in one framework (Section 2.2 and
// Proposition 2.1 of Fan & Geerts): denial constraints, conditional
// functional dependencies and conditional inclusion dependencies are
// expressible as containment constraints, so a single partially-closed
// check enforces both data consistency and relative completeness.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	schemas := mdm.Schemas()
	emp := relation.NewSchema("Emp", relation.Attr("eid"), relation.Attr("dept"))
	schemas["Emp"] = emp
	d := relation.NewDatabase(schemas[mdm.Cust], schemas[mdm.Supt], schemas[mdm.Manage], emp)
	dm := relation.NewDatabase(mdm.MasterSchemas()[mdm.DCust])

	// Three integrity constraints from Section 2.2, translated to CCs.
	cfd := &cc.CFD{ // dept = "BU" ⟹ eid → cid (the CFD of Section 2.2)
		Name: "buCFD", Rel: mdm.Supt,
		From: []int{0}, To: []int{2},
		PatX: []cc.PatternItem{{Col: 1, Val: "BU"}},
	}
	cind := &cc.CIND{ // BU supporters must be BU employees
		Name: "buCIND", R1: mdm.Supt, X1: []int{0},
		Pat1: []cc.PatternItem{{Col: 1, Val: "BU"}},
		R2:   "Emp", X2: []int{0},
		Pat2: []cc.PatternItem{{Col: 1, Val: "BU"}},
	}
	denial := &cc.Denial{ // nobody supports themselves
		Name:  "noSelf",
		Atoms: []query.RelAtom{query.Atom(mdm.Supt, query.Var("e"), query.Var("d"), query.Var("c"))},
		Conds: []query.EqAtom{query.Eq(query.Var("e"), query.Var("c"))},
	}

	consistency := cc.NewSet(cfd.ToCCs(3)...)
	consistency.Add(denial.ToCC(), cind.ToCC(3, 2))

	d.MustAdd("Emp", "e0", "BU")
	d.MustAdd(mdm.Supt, "e0", "BU", "c1")

	ok, err := consistency.Satisfied(d, dm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent database: all integrity constraints hold = %v\n", ok)

	// Introduce a CFD violation: e0 now supports a second BU customer.
	bad := d.Clone()
	bad.MustAdd(mdm.Supt, "e0", "BU", "c2")
	c, witness, viol, err := consistency.FirstViolation(bad, dm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a bad insert: violated = %v, constraint = %s, witness = %v\n\n", viol, c.Name, witness)

	// Uniform framework: combine the CQ-expressible consistency CCs
	// (CFD + denial) with the completeness constraint φ₁ (bound every
	// employee to k = 2 customers) and decide completeness under both
	// at once with the exact decider.
	all := cc.NewSet(cfd.ToCCs(3)...)
	all.Add(denial.ToCC(), mdm.Phi1(2))
	d.MustAdd(mdm.Supt, "e1", "sales", "c7")
	d.MustAdd(mdm.Supt, "e1", "sales", "c8")

	q := mdm.Q2("e1")
	r, err := core.RCDPCtx(context.Background(), q, d, dm, all)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2(e1) answers 2 customers; complete under consistency+cardinality CCs = %v\n",
		r.Verdict == core.VerdictComplete)
	fmt.Println("(the two answers exhaust the k = 2 budget, so no consistent,")
	fmt.Println(" partially closed extension can change the answer — Example 3.1)")

	// The CIND needs FO as L_C — RCDP is then undecidable (Theorem
	// 3.1(2)) and the bounded semi-decision procedure takes over.
	withCIND := cc.NewSet(all.Constraints...)
	withCIND.Add(cind.ToCC(3, 2))
	br, err := core.BoundedRCDPCtx(context.Background(), q, d, dm, withCIND, core.BoundedOpts{MaxAdd: 1, FreshValues: 1, MaxPool: 500000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith the FO-expressed CIND added: bounded check (Theorem 3.1 territory)\n")
	fmt.Printf("  incomplete within %d-tuple extensions = %v (%d candidates explored)\n",
		br.MaxAdd, br.Verdict == core.VerdictIncomplete, br.Stats.Valuations)
}
