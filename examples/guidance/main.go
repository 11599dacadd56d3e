// Master-data design via RCQP: "a practical challenge for MDM is to
// identify what data should be maintained as master data" (Section 2.3
// of Fan & Geerts, citing Loshin 2008). Given a workload of queries,
// run RCQP under candidate constraint sets and report which master
// coverage makes every query relatively complete.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/qlang"
)

func main() {
	s := mdm.Generate(mdm.DefaultConfig())

	workload := []struct {
		name string
		q    qlang.Query
	}{
		{"Q0(908): supported domestic customers in area 908", mdm.Q0("908")},
		{"Q1(e00, 908): area-908 customers supported by e00", mdm.Q1("e00", "908")},
		{"Q2(e00): all customers supported by e00", mdm.Q2("e00")},
		{"Q3/2hop: managers two levels above e00", mdm.Q3CQ("e00", 2)},
	}

	designs := []struct {
		name string
		v    *cc.Set
	}{
		{"no constraints (pure open world)", cc.NewSet()},
		{"φ0 only (domestic customers mastered)", cc.NewSet(mdm.Phi0())},
		{"φ0 + cid IND + Manage IND (full master coverage)",
			cc.NewSet(mdm.Phi0(), mdm.CidIND(), mdm.ManageIND())},
	}

	fmt.Println("query relative completeness under candidate master-data designs")
	fmt.Println("(yes = some complete database exists; no = master data too weak)")
	for _, dsg := range designs {
		fmt.Printf("\n== design: %s\n", dsg.name)
		allYes := true
		for _, w := range workload {
			res, err := core.RCQPCtx(context.Background(), w.q, s.Dm, dsg.v, s.Schemas)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("   %-52s → %v (%s)\n", w.name, res.Status, res.Method)
			if res.Status != core.Yes {
				allYes = false
			}
		}
		if allYes {
			fmt.Println("   → this design supports complete answers for the whole workload")
		}
	}
}
