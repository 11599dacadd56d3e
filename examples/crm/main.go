// The Section 2.3 walkthrough: the three relative-completeness
// paradigms of Fan & Geerts on the CRM scenario —
//
//	(1) assessing whether the data in a database is complete for a
//	    query (RCDP),
//	(2) guidance for what data should be collected when it is not
//	    (MakeComplete, driven by the RCDP counterexamples), and
//	(3) a guideline for how master data should be expanded when no
//	    complete database can exist at all (RCQP says no).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
)

func main() {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 12
	cfg.Employees = 3
	cfg.Completeness = 0.5 // half the master customers are missing from D
	s := mdm.Generate(cfg)
	v := cc.NewSet(mdm.Phi0())

	fmt.Printf("scenario: |DCust| = %d master customers, |Cust| = %d rows in D (completeness %.0f%%)\n\n",
		s.Dm.Instance(mdm.DCust).Len(), s.D.Instance(mdm.Cust).Len(), cfg.Completeness*100)

	// ---- Paradigm (1): assess completeness of D for Q0. --------------
	q0 := mdm.Q0("908")
	r, err := core.RCDPCtx(context.Background(), q0, s.D, s.Dm, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(1) Q0: all supported domestic customers with area code 908")
	if r.Verdict == core.VerdictComplete {
		fmt.Println("    RCDP: complete — the answer can be trusted.")
	} else {
		fmt.Printf("    RCDP: incomplete — e.g. these tuples could legally be added:\n      %v\n", r.Extension)
	}

	// ---- Paradigm (2): can D be extended to completeness? Do it. -----
	res, err := core.RCQPCtx(context.Background(), q0, s.Dm, v, s.Schemas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(2) RCQP(Q0): %v", res.Status)
	if res.Status == core.Yes && r.Verdict != core.VerdictComplete {
		fmt.Print(" — a complete database exists")
		done, rounds, err := core.MakeComplete(q0, s.D, s.Dm, v, 100)
		if err != nil {
			log.Fatal(err)
		}
		added := done.TupleCount() - s.D.TupleCount()
		fmt.Printf("; MakeComplete added %d tuples in %d rounds.\n", added, rounds)
		check, err := core.RCDPCtx(context.Background(), q0, done, s.Dm, v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    re-check: complete = %v\n", check.Verdict == core.VerdictComplete)
	} else {
		fmt.Println(".")
	}

	// ---- Paradigm (3): Q0' over ALL customers, international too. ----
	// International customers are not bounded by any master data, so no
	// database can ever be complete: the master data must be expanded.
	q0prime := mdm.Q2("e00") // all customers supported by e00, domestic or not
	res, err = core.RCQPCtx(context.Background(), q0prime, s.Dm, v, s.Schemas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(3) Q0': all customers supported by e00 (international included)\n")
	fmt.Printf("    RCQP: %v — %s\n", res.Status, res.Detail)
	if res.Status == core.No {
		fmt.Println("    guideline: extend the master data to cover all customers")
		fmt.Println("    (or bound Supt.cid by master data), then re-run the analysis:")
		v2 := cc.NewSet(mdm.Phi0(), mdm.CidIND())
		res2, err := core.RCQPCtx(context.Background(), q0prime, s.Dm, v2, s.Schemas)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    with π_cid(Supt) ⊆ π_cid(DCust): RCQP = %v\n", res2.Status)
	}
}
