package mdm

import (
	"context"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/relation"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if !a.D.Equal(b.D) || !a.Dm.Equal(b.Dm) {
		t.Fatal("generation must be deterministic for equal configs")
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	c := Generate(cfg)
	if a.D.Equal(c.D) {
		t.Fatal("different seeds should give different data")
	}
}

func TestGeneratedSizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DomesticCustomers = 30
	cfg.InternationalCustomers = 7
	cfg.Completeness = 1.0
	s := Generate(cfg)
	if s.Dm.Instance(DCust).Len() != 30 {
		t.Fatalf("DCust size %d", s.Dm.Instance(DCust).Len())
	}
	if s.D.Instance(Cust).Len() != 37 {
		t.Fatalf("Cust size %d", s.D.Instance(Cust).Len())
	}
	if s.D.Instance(Manage).Len() != cfg.ManageDepth {
		t.Fatalf("Manage size %d", s.D.Instance(Manage).Len())
	}
}

func TestGeneratedPartiallyClosed(t *testing.T) {
	s := Generate(DefaultConfig())
	v := cc.NewSet(Phi0(), Phi0Cid(), Phi1(DefaultConfig().MaxSupport), ManageIND(), CidIND())
	if err := v.Validate(s.Dm); err != nil {
		t.Fatal(err)
	}
	ok, err := v.Satisfied(s.D, s.Dm)
	if err != nil || !ok {
		t.Fatalf("generated scenario must satisfy the standard constraints: %v %v", ok, err)
	}
	// The FD eid → dept, cid (Example 3.1's alternative scenario) is
	// deliberately violated by multi-customer support.
	single := Generate(Config{Seed: 2, DomesticCustomers: 6, Employees: 3,
		SupportPerEmployee: 1, MaxSupport: 1, Completeness: 1, ManageDepth: 2})
	fdSet := cc.NewSet(SuptFD()...)
	ok, err = fdSet.Satisfied(single.D, single.Dm)
	if err != nil || !ok {
		t.Fatalf("single-support scenario must satisfy the FD: %v %v", ok, err)
	}
}

func TestIncompleteScenarioDetected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DomesticCustomers = 6
	cfg.Employees = 2
	cfg.Completeness = 0.5
	s := Generate(cfg)
	v := cc.NewSet(Phi0())
	q := Q0("908")
	r, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v)
	if err != nil {
		t.Fatal(err)
	}
	// With half the domestic customers missing, Q0 over any populated
	// area code is very likely incomplete; assert the checker runs and,
	// when incomplete, produces a verifiable witness.
	if r.Verdict != core.VerdictComplete {
		union := s.D.Union(r.Extension)
		if ok, _ := v.Satisfied(union, s.Dm); !ok {
			t.Fatal("counterexample not partially closed")
		}
	}
}

func TestCompleteScenarioQ1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DomesticCustomers = 8
	cfg.Employees = 2
	cfg.Completeness = 1.0
	s := Generate(cfg)

	// Saturate: support every domestic customer from e00 so Q1 answers
	// cover everything the master data allows for its area code.
	for _, mt := range s.Dm.Instance(DCust).Tuples() {
		s.D.MustAdd(Supt, "e00", "sales", string(mt[0]))
	}
	v := cc.NewSet(Phi0())
	q := Q1("e00", "908")
	r, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictComplete {
		t.Fatalf("saturated Q1 must be complete; extension %v", r.Extension)
	}
}

func TestQ2WithAtMostK(t *testing.T) {
	// Example 1.1's cardinality argument on generated data: saturate one
	// employee to the bound k, then Q2 is complete.
	cfg := DefaultConfig()
	cfg.Employees = 1
	cfg.SupportPerEmployee = 0
	s := Generate(cfg)
	k := 3
	for i := 0; i < k; i++ {
		s.D.MustAdd(Supt, "e00", "sales", string(rune('a'+i)))
	}
	v := cc.NewSet(Phi1(k))
	r, err := core.RCDPCtx(context.Background(), Q2("e00"), s.D, s.Dm, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != core.VerdictComplete {
		t.Fatalf("Q2 at the k bound must be complete; extension %v", r.Extension)
	}
}

func TestQ3DatalogVsCQ(t *testing.T) {
	// Example 1.1's Q3 discussion: the datalog query computes the full
	// chain; the 1-hop CQ only the direct manager.
	s := Generate(DefaultConfig())
	full, err := Q3Datalog("e00").Eval(s.D)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != s.Config.ManageDepth {
		t.Fatalf("datalog chain length %d, want %d", len(full), s.Config.ManageDepth)
	}
	hop1, err := Q3CQ("e00", 1).Eval(s.D)
	if err != nil {
		t.Fatal(err)
	}
	if len(hop1) != 1 {
		t.Fatalf("1-hop CQ answers %v", hop1)
	}
	// The CQ for 2 hops finds exactly the grandmanager.
	hop2, err := Q3CQ("e00", 2).Eval(s.D)
	if err != nil {
		t.Fatal(err)
	}
	if len(hop2) != 1 || hop2[0][0] != relation.Value("e02") {
		t.Fatalf("2-hop CQ answers %v", hop2)
	}
}

// TestQ3RelativeCompleteness reproduces the Manage/ManageM analysis:
// with Manage bounded by master data (an IND), the k-hop CQ is
// relatively complete; on a database missing an edge it is incomplete,
// and completion adds the missing edge.
func TestQ3RelativeCompleteness(t *testing.T) {
	s := Generate(DefaultConfig())
	v := cc.NewSet(ManageIND())
	q := Q3CQ("e00", 2)

	res, err := core.RCQPCtx(context.Background(), q, s.Dm, v, s.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Yes {
		t.Fatalf("k-hop query over IND-bounded Manage must be relatively complete: %+v", res)
	}

	// Remove one edge: the database becomes incomplete; MakeComplete
	// restores it.
	d := s.D.Clone()
	d.Instance(Manage).Remove(relation.T("e02", "e01"))
	r, err := core.RCDPCtx(context.Background(), q, d, s.Dm, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == core.VerdictComplete {
		t.Fatal("database missing a management edge must be incomplete")
	}
	done, _, err := core.MakeComplete(q, d, s.Dm, v, 20)
	if err != nil {
		t.Fatal(err)
	}
	r, err = core.RCDPCtx(context.Background(), q, done, s.Dm, v)
	if err != nil || r.Verdict != core.VerdictComplete {
		t.Fatalf("MakeComplete failed: %v %v", r, err)
	}
}
