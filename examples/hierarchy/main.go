// Query Q₃ of Example 1.1: the management hierarchy. Whether a
// database is complete is relative to the query language — the datalog
// (FP) version of "everyone above e00" computes the transitive closure
// itself, while the conjunctive k-hop version needs the closure
// materialized; and with Manage bounded by the master relation ManageM
// (an IND), the k-hop query is relatively complete and an incomplete
// database can be completed automatically.
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
	cfg := mdm.DefaultConfig()
	cfg.ManageDepth = 5
	s := mdm.Generate(cfg)
	v := cc.NewSet(mdm.ManageIND())

	// The FP query sees the whole chain from the direct edges.
	fp := mdm.Q3Datalog("e00")
	full, err := fp.Eval(s.D)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datalog Q3: %d managers above e00: %v\n", len(full), full)

	// The 2-hop CQ sees only what is materialized.
	q2hop := mdm.Q3CQ("e00", 2)
	part, err := q2hop.Eval(s.D)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-hop CQ: %v\n\n", part)

	// Drop an edge: the 2-hop CQ becomes incomplete relative to ManageM.
	d := s.D.Clone()
	d.Instance(mdm.Manage).Remove(relation.T("e02", "e01"))
	r, err := core.RCDPCtx(context.Background(), q2hop, d, s.Dm, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after dropping Manage(e02, e01): complete = %v\n", r.Verdict == core.VerdictComplete)
	if r.Verdict != core.VerdictComplete {
		fmt.Printf("  missing data (from the counterexample): %v\n", r.Extension)
	}

	// Complete it: the guidance loop re-adds exactly what the master
	// data mandates.
	done, rounds, err := core.MakeComplete(q2hop, d, s.Dm, v, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MakeComplete: %d rounds, Manage now has %d edges (had %d)\n",
		rounds, done.Instance(mdm.Manage).Len(), d.Instance(mdm.Manage).Len())

	// And the relative-completeness-of-the-query view (RCQP): bounded by
	// ManageM, the k-hop query admits complete databases.
	res, err := core.RCQPCtx(context.Background(), q2hop, s.Dm, v, s.Schemas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RCQP(2-hop Q3): %v via %s\n", res.Status, res.Method)
}
