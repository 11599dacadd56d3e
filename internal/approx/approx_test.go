package approx

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// The Example 2.1 CRM problem (the same instance the server tests pin):
// DCust pins the (cid, ac) pairs of supported domestic customers.
const (
	crmSchemas = `
rel Cust(cid, name, cc, ac, phn)
rel Supt(eid, dept, cid)
rel Manage(eid1, eid2)
`
	crmMasterSchemas = `rel DCust(cid, name, ac, phn)`
	crmMaster        = `
DCust(c1, Ann, 908, 5550001).
DCust(c2, Bob, 973, 5550002).
`
	crmDB = `
Cust(c1, Ann, 01, 908, 5550001).
Cust(c2, Bob, 01, 973, 5550002).
Supt(e0, sales, c1).
`
	crmConstraints = `cc phi0(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0, 2]`
	// crmQuery drops Q1's A selection: "which domestic customers have
	// support?" — incomplete over crmDB, since a legal extension can
	// give the area-973 customer c2 a support edge.
	crmQuery = `Q2(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), CC = 01`
)

// The generalization fixture: c1 is recorded with the wrong country
// code, so the selective query is incomplete (a legal extension can add
// a domestic c1 row), while dropping CC = 01 yields a query whose only
// possible answer c1 is already present.
const (
	genSchemas       = `rel Cust(cid, name, cc, ac, phn)`
	genMasterSchemas = `rel DCustIDs(cid)`
	genMaster        = `DCustIDs(c1).`
	genDB            = `Cust(c1, Ann, 02, 908, 5550001).`
	genConstraints   = `cc psi(C) :- Cust(C, N, CC, A, P) <= DCustIDs[0]`
	genQuerySrc      = `Qg(C) :- Cust(C, N, CC, A, P), CC = 01, A = 908`
)

func parseProblem(t *testing.T, src textq.ProblemSource) *textq.Problem {
	t.Helper()
	p, err := textq.ParseProblem(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func crmProblem(t *testing.T) *textq.Problem {
	return parseProblem(t, textq.ProblemSource{
		Schemas:       crmSchemas,
		MasterSchemas: crmMasterSchemas,
		DB:            crmDB,
		Master:        crmMaster,
		Constraints:   crmConstraints,
		Query:         crmQuery,
	})
}

func genProblem(t *testing.T) *textq.Problem {
	return parseProblem(t, textq.ProblemSource{
		Schemas:       genSchemas,
		MasterSchemas: genMasterSchemas,
		DB:            genDB,
		Master:        genMaster,
		Constraints:   genConstraints,
		Query:         genQuerySrc,
	})
}

// forEachEngine runs fn at Workers 1 and 8 — the engine configurations
// the approximation properties must hold on.
func forEachEngine(t *testing.T, fn func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 8} {
		name := "seq"
		if workers != 1 {
			name = "par8"
		}
		t.Run(name, func(t *testing.T) { fn(t, workers) })
	}
}

// TestApproximateSpecializationsCertified pins the central contract:
// every returned specialization (i) is subsumed by Q under the
// containment oracle and (ii) re-checks Complete under an independent
// checker, and the returned frontier is an antichain (maximality).
func TestApproximateSpecializationsCertified(t *testing.T) {
	forEachEngine(t, func(t *testing.T, workers int) {
		p := crmProblem(t)
		d, dm := p.D, p.Dm
		ck := &core.Checker{Workers: workers}
		res, err := Approximate(context.Background(), p.Q, d, dm, p.V,
			Options{Checker: ck, MaxSelections: 2, MaxCandidates: 48, MaxValuesPerVar: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != core.VerdictIncomplete {
			t.Fatalf("base verdict %v, want incomplete", res.Verdict)
		}
		if len(res.Specializations) == 0 {
			t.Fatal("no specializations found")
		}
		qc, _ := qlang.AsCQ(p.Q)
		schemas := p.Schemas
		oracle := &core.Checker{Workers: 1}
		for _, spec := range res.Specializations {
			sub, err := cq.Specializes(spec.Query, qc, schemas)
			if err != nil || !sub {
				t.Fatalf("specialization %v not subsumed by Q: %v", spec.Selections, err)
			}
			check, err := oracle.RCDPCtx(context.Background(), qlang.FromCQ(spec.Query), d, dm, p.V)
			if err != nil {
				t.Fatal(err)
			}
			if check.Verdict != core.VerdictComplete {
				t.Fatalf("specialization %v re-checks %v, want complete", spec.Selections, check.Verdict)
			}
		}
		// Antichain: no returned selection set contains another.
		sets := make([]map[Selection]bool, len(res.Specializations))
		for i, spec := range res.Specializations {
			sets[i] = make(map[Selection]bool)
			for _, s := range spec.Selections {
				sets[i][s] = true
			}
		}
		for i := range sets {
			for j := range sets {
				if i == j {
					continue
				}
				contained := true
				for s := range sets[i] {
					if !sets[j][s] {
						contained = false
						break
					}
				}
				if contained {
					t.Fatalf("frontier not an antichain: %v ⊆ %v",
						res.Specializations[i].Selections, res.Specializations[j].Selections)
				}
			}
		}
	})
}

// TestApproximateSpecializationExpected pins a concrete lattice point:
// restricting Q2 to area 908 is complete (DCust admits no new supported
// area-908 domestic customer), so an A=908 specialization must be in
// the frontier.
func TestApproximateSpecializationExpected(t *testing.T) {
	p := crmProblem(t)
	res, err := Approximate(context.Background(), p.Q, p.D, p.Dm, p.V,
		Options{MaxSelections: 2, MaxCandidates: 48, MaxValuesPerVar: 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, spec := range res.Specializations {
		for _, s := range spec.Selections {
			if s.Var == "A" && s.Value == "908" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no A=908 specialization in frontier: %+v", res.Specializations)
	}
	if res.Explored == 0 || res.Certified == 0 {
		t.Fatalf("counters not charged: explored %d certified %d", res.Explored, res.Certified)
	}
}

// TestApproximateGeneralizationsCertified: every returned
// generalization contains Q and re-checks Complete; the fixture's
// minimal complete generalization (drop CC = 01) must be found.
func TestApproximateGeneralizationsCertified(t *testing.T) {
	forEachEngine(t, func(t *testing.T, workers int) {
		p := genProblem(t)
		d, dm := p.D, p.Dm
		ck := &core.Checker{Workers: workers}
		res, err := Approximate(context.Background(), p.Q, d, dm, p.V, Options{Checker: ck})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != core.VerdictIncomplete {
			t.Fatalf("base verdict %v, want incomplete", res.Verdict)
		}
		if len(res.Generalizations) == 0 {
			t.Fatal("no generalizations found")
		}
		qc, _ := qlang.AsCQ(p.Q)
		oracle := &core.Checker{Workers: 1}
		foundCC := false
		for _, gen := range res.Generalizations {
			sup, err := cq.Specializes(qc, gen.Query, p.Schemas)
			if err != nil || !sup {
				t.Fatalf("generalization does not contain Q: %v", err)
			}
			check, err := oracle.RCDPCtx(context.Background(), qlang.FromCQ(gen.Query), d, dm, p.V)
			if err != nil {
				t.Fatal(err)
			}
			if check.Verdict != core.VerdictComplete {
				t.Fatalf("generalization re-checks %v, want complete", check.Verdict)
			}
			if len(gen.Dropped) == 1 && !gen.Dropped[0].R.IsVar && gen.Dropped[0].R.Val == "01" {
				foundCC = true
			}
		}
		if !foundCC {
			t.Fatalf("drop-CC generalization not found: %+v", res.Generalizations)
		}
	})
}

// TestApproximateCompleteQuery: a Complete base verdict returns no
// approximations — there is nothing to approximate.
func TestApproximateCompleteQuery(t *testing.T) {
	p := parseProblem(t, textq.ProblemSource{
		Schemas:       crmSchemas,
		MasterSchemas: crmMasterSchemas,
		DB:            crmDB,
		Master:        crmMaster,
		Constraints:   crmConstraints,
		Query:         `Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908`,
	})
	res, err := Approximate(context.Background(), p.Q, p.D, p.Dm, p.V, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.VerdictComplete {
		t.Fatalf("verdict %v, want complete", res.Verdict)
	}
	if len(res.Specializations)+len(res.Generalizations) != 0 || res.Explored != 0 {
		t.Fatalf("complete query produced candidates: %+v", res)
	}
}

// TestAdviseFlipsVerdict pins the advice contract on the CRM instance
// missing its c1 rows: the batch must flip the verdict, and replaying
// the items onto an untouched clone through an independent checker must
// reproduce the Complete verdict (the caller-visible certificate).
func TestAdviseFlipsVerdict(t *testing.T) {
	forEachEngine(t, func(t *testing.T, workers int) {
		p := parseProblem(t, textq.ProblemSource{
			Schemas:       crmSchemas,
			MasterSchemas: crmMasterSchemas,
			DB:            `Cust(c2, Bob, 01, 973, 5550002).`,
			Master:        crmMaster,
			Constraints:   crmConstraints,
			Query:         `Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908`,
		})
		d, dm := p.D, p.Dm
		before := textq.FormatDatabase(d)
		ck := &core.Checker{Workers: workers}
		adv, err := Advise(context.Background(), p.Q, d, dm, p.V, Options{Checker: ck})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Verdict != core.VerdictIncomplete {
			t.Fatalf("initial verdict %v, want incomplete", adv.Verdict)
		}
		if !adv.Flipped || adv.Final != core.VerdictComplete {
			t.Fatalf("advice did not flip: %+v", adv)
		}
		if len(adv.Items) == 0 || adv.Rounds == 0 {
			t.Fatalf("empty advice: %+v", adv)
		}
		// Advise must not mutate the caller's database.
		if after := textq.FormatDatabase(d); after != before {
			t.Fatalf("Advise mutated D:\nbefore %q\nafter  %q", before, after)
		}
		// Independent replay: apply every item to a fresh clone and
		// re-check with a new checker.
		dc := d.Clone()
		ins := make(map[string][]relation.Tuple)
		for _, it := range adv.Items {
			ins[it.Relation] = append(ins[it.Relation], it.Tuple)
		}
		if _, _, err := dc.ApplyBatch(relation.Batch{Inserts: ins}); err != nil {
			t.Fatalf("advice does not apply: %v", err)
		}
		check, err := (&core.Checker{Workers: 1}).RCDPCtx(context.Background(), p.Q, dc, dm, p.V)
		if err != nil {
			t.Fatal(err)
		}
		if check.Verdict != core.VerdictComplete {
			t.Fatalf("replayed advice re-checks %v, want complete", check.Verdict)
		}
		// Ranking: concrete items (Fresh 0) ahead of placeholder patterns.
		for i := 1; i < len(adv.Items); i++ {
			if adv.Items[i-1].Fresh > adv.Items[i].Fresh {
				t.Fatalf("advice not ranked concrete-first: %+v", adv.Items)
			}
		}
	})
}

// TestAdviseKeepsMasterMemo: Advise only reads the caller's Dm, so
// after one warm check its rounds hit the p(Dm) memo on Dm itself (no
// miss), and neither D nor Dm changes.
func TestAdviseKeepsMasterMemo(t *testing.T) {
	p := parseProblem(t, textq.ProblemSource{
		Schemas:       crmSchemas,
		MasterSchemas: crmMasterSchemas,
		DB:            `Cust(c2, Bob, 01, 973, 5550002).`,
		Master:        crmMaster,
		Constraints:   crmConstraints,
		Query:         `Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908`,
	})
	d, dm := p.D, p.Dm
	ck := &core.Checker{Workers: 1}
	if _, err := ck.RCDPCtx(context.Background(), p.Q, d, dm, p.V); err != nil {
		t.Fatal(err)
	}
	beforeD, beforeDm := textq.FormatDatabase(d), textq.FormatDatabase(dm)
	misses0 := obs.PDmMisses.Value()
	adv, err := Advise(context.Background(), p.Q, d, dm, p.V, Options{Checker: ck})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Rounds == 0 || !adv.Flipped {
		t.Fatalf("advice ran no round or did not flip: %+v", adv)
	}
	if misses := obs.PDmMisses.Value() - misses0; misses != 0 {
		t.Fatalf("Advise missed the p(Dm) memo %d times after a warm check, want 0", misses)
	}
	if after := textq.FormatDatabase(d); after != beforeD {
		t.Fatalf("Advise mutated D:\nbefore %q\nafter  %q", beforeD, after)
	}
	if after := textq.FormatDatabase(dm); after != beforeDm {
		t.Fatalf("Advise mutated Dm:\nbefore %q\nafter  %q", beforeDm, after)
	}
}

// TestAdviseCompleteNoop: advice on an already-complete instance
// returns immediately with no items.
func TestAdviseCompleteNoop(t *testing.T) {
	p := parseProblem(t, textq.ProblemSource{
		Schemas:       crmSchemas,
		MasterSchemas: crmMasterSchemas,
		DB:            crmDB,
		Master:        crmMaster,
		Constraints:   crmConstraints,
		Query:         `Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908`,
	})
	adv, err := Advise(context.Background(), p.Q, p.D, p.Dm, p.V, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Verdict != core.VerdictComplete || adv.Flipped || len(adv.Items) != 0 {
		t.Fatalf("unexpected advice on complete instance: %+v", adv)
	}
}

// TestApproximateRequiresCQ: the lattice is a CQ construction; other
// languages are refused with a typed error.
func TestApproximateRequiresCQ(t *testing.T) {
	p := crmProblem(t)
	u := qlang.FromUCQ(cq.Union("U", mustCQ(t, p)))
	if _, err := Approximate(context.Background(), u, p.D, p.Dm, p.V, Options{}); err == nil {
		t.Fatal("UCQ accepted by Approximate")
	}
}

func mustCQ(t *testing.T, p *textq.Problem) *cq.CQ {
	t.Helper()
	qc, ok := qlang.AsCQ(p.Q)
	if !ok {
		t.Fatal("fixture query is not a CQ")
	}
	return qc.Clone()
}
