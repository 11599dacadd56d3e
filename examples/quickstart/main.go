// Quickstart: decide whether a partially closed database has complete
// information to answer a query (Example 1.1 of Fan & Geerts).
//
// A company keeps master data DCust — the closed-world list of all its
// domestic customers — while the operational relations Cust and Supt
// may be missing tuples. The containment constraint φ₀ ties the
// supported domestic customers to the master data. We ask: is the
// answer to "which area-908 customers does employee e0 support?"
// complete, i.e. can no legal addition of tuples change it?
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/relation"
)

func main() {
	schemas := mdm.Schemas()
	master := mdm.MasterSchemas()

	// Master data: two domestic customers.
	dm := relation.NewDatabase(master[mdm.DCust], master[mdm.ManageM])
	dm.MustAdd(mdm.DCust, "c1", "Ann", "908", "5550001")
	dm.MustAdd(mdm.DCust, "c2", "Bob", "973", "5550002")

	// The database: both customers present, e0 supports c1.
	d := relation.NewDatabase(schemas[mdm.Cust], schemas[mdm.Supt], schemas[mdm.Manage])
	d.MustAdd(mdm.Cust, "c1", "Ann", "01", "908", "5550001")
	d.MustAdd(mdm.Cust, "c2", "Bob", "01", "973", "5550002")
	d.MustAdd(mdm.Supt, "e0", "sales", "c1")

	v := cc.NewSet(mdm.Phi0())
	q := mdm.Q1("e0", "908")

	answers, _ := q.Eval(d)
	fmt.Printf("Q1(D) = %v\n", answers)

	r, err := core.RCDPCtx(context.Background(), q, d, dm, v)
	if err != nil {
		log.Fatal(err)
	}
	if r.Verdict == core.VerdictComplete {
		fmt.Println("RCDP: the database is COMPLETE for Q1 — every area-908")
		fmt.Println("domestic customer e0 could support is already answered.")
	} else {
		fmt.Printf("RCDP: INCOMPLETE — adding the following tuples is legal and changes the answer:\n%v\nnew answer: %v\n",
			r.Extension, r.NewTuple)
	}

	// Is there any database complete for Q1 at all?
	res, err := core.RCQPCtx(context.Background(), q, dm, v, schemas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RCQP: %v (method %s)\n", res.Status, res.Method)
}
