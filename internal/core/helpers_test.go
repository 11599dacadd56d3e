package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/datalog"
	"repro/internal/mdm"
	"repro/internal/query"
	"repro/internal/relation"
)

// datalogTC builds a small FP program for the language guard tests.
func datalogTC() *datalog.Program {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	return datalog.NewProgram("tc", "TC",
		datalog.NewRule(query.Atom("TC", x, y), datalog.L("Supt", x, y, z)),
	)
}

// mdmSet is the Example 2.1 constraint set for a generated scenario.
func mdmSet(cfg mdm.Config) *cc.Set {
	return cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))
}

// rebuildDB reconstructs a database's contents in fresh storage: no
// warm indexes, sort caches or memos carry over, which is what the
// cold oracles of the recheck tests need.
func rebuildDB(t *testing.T, db *relation.Database) *relation.Database {
	t.Helper()
	if db == nil {
		return nil
	}
	names := db.Relations()
	ss := make([]*relation.Schema, 0, len(names))
	for _, name := range names {
		ss = append(ss, db.Schema(name))
	}
	nd := relation.NewDatabase(ss...)
	for _, name := range names {
		for _, tup := range db.Instance(name).Tuples() {
			if err := nd.Add(name, tup); err != nil {
				t.Fatalf("rebuild %s: %v", name, err)
			}
		}
	}
	return nd
}
