package repro

// Benchmark harness: one benchmark family per row of the paper's
// complexity tables (see EXPERIMENTS.md for the recorded series), plus
// the ablations called out in DESIGN.md and substrate micro-benchmarks.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Table I rows scale in the *query* (the problems are Σ₂ᵖ-complete in
// combined complexity — Theorem 3.6 — so the reduction families grow
// exponentially) and stay polynomial in the *data* for a fixed query
// (BenchmarkDataComplexity). Table II rows likewise follow their
// classes: coNP via the 3SAT family, NEXPTIME via tiling witnesses, Σ₃ᵖ
// via ∃∀∃-3SAT.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/mdm"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/textq"
	"repro/internal/tiling"
)

// ---------------------------------------------------------------------
// Table I — RCDP
// ---------------------------------------------------------------------

func forallExistsInstance(b *testing.B, nVars int) *reductions.RCDPInstance {
	b.Helper()
	phi := benchCNF(nVars, nVars+2, int64(nVars))
	inst, err := reductions.ForallExistsToRCDP(phi, nVars/2)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkRCDP_CQ_INDs_ForallExists is the Table I row (CQ, INDs):
// query complexity on the Theorem 3.6 reduction family (exponential in
// the variable count, as Σ₂ᵖ-hardness demands).
func BenchmarkRCDP_CQ_INDs_ForallExists(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		inst := forallExistsInstance(b, n)
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func crmScenario(customers int) (*mdm.Scenario, *cc.Set) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = customers
	cfg.Employees = customers / 10
	cfg.Completeness = 1.0
	return mdm.Generate(cfg), cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))
}

// BenchmarkRCDP_CQ_CQ_DataComplexity is the Table I row (CQ, CQ): data
// complexity on the CRM workload — the query and constraints are fixed
// while the database grows, and the checker stays polynomial.
func BenchmarkRCDP_CQ_CQ_DataComplexity(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		s, v := crmScenario(n)
		q := mdm.Q0("908")
		b.Run(fmt.Sprintf("customers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRCDP_UCQ is the Table I row (UCQ, UCQ): disjunct sweep.
func BenchmarkRCDP_UCQ(b *testing.B) {
	s, v := crmScenario(50)
	for _, k := range []int{1, 2, 4, 6} {
		q := areaUnion(k)
		b.Run(fmt.Sprintf("disjuncts=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRCDP_EFO is the Table I row (∃FO⁺, ∃FO⁺): the same workload
// expressed with nested disjunction, going through DNF expansion.
func BenchmarkRCDP_EFO(b *testing.B) {
	s, v := crmScenario(50)
	for _, k := range []int{2, 3, 4} {
		q := areaEFO(k)
		b.Run(fmt.Sprintf("orWidth=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Table II — RCQP
// ---------------------------------------------------------------------

// BenchmarkRCQP_CQ_INDs_3SAT is the Table II row (CQ, INDs): the
// coNP-complete case on the Theorem 4.5(1) reduction family.
func BenchmarkRCQP_CQ_INDs_3SAT(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16} {
		phi := benchCNF(n, 3*n, int64(n)+17)
		inst, err := reductions.ThreeSATToRCQP(phi)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRCQP_Tiling is the Table II row (CQ, CQ): the
// NEXPTIME-complete case — witness construction plus RCDP verification
// on the Theorem 4.5(2) reduction.
func BenchmarkRCQP_Tiling(b *testing.B) {
	for _, n := range []int{1, 2} {
		in := tiling.New(2, n)
		in.AllowV(0, 1)
		in.AllowV(1, 0)
		in.AllowH(0, 1)
		in.AllowH(1, 0)
		g, ok := in.Solve()
		if !ok {
			b.Fatal("unsolvable")
		}
		inst, err := reductions.TilingToRCQP(in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := reductions.TilingWitness(inst, in, g)
				if err != nil {
					b.Fatal(err)
				}
				r, err := core.RCDPCtx(context.Background(), inst.Q, w, inst.Dm, inst.V)
				if err != nil || r.Verdict != core.VerdictComplete {
					b.Fatalf("witness rejected: %v %v", r, err)
				}
			}
		})
	}
}

// BenchmarkRCQP_EFE is the Table II fixed-(Dm, V) row: Σ₃ᵖ via the
// Corollary 4.6 reduction, verifying the proof's witness with RCDP.
func BenchmarkRCQP_EFE(b *testing.B) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		phi := benchCNF(dims[0]+dims[1]+dims[2], dims[0]+dims[1]+dims[2]+1,
			int64(dims[0]*100+dims[1]*10+dims[2]))
		inst, err := reductions.ExistsForallExistsToRCQP(phi, dims[0], dims[1])
		if err != nil {
			b.Fatal(err)
		}
		wx, ok := sat.ExistsWitness(phi, dims[0], dims[1])
		if !ok {
			wx = map[int]bool{}
		}
		d := reductions.EFEWitness(inst, wx)
		b.Run(fmt.Sprintf("x%dy%dz%d", dims[0], dims[1], dims[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RCDPCtx(context.Background(), inst.Q, d, inst.Dm, inst.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRCQP_CRM measures the certificate search on the MDM
// workload (the Section 2.3 paradigms).
func BenchmarkRCQP_CRM(b *testing.B) {
	s, _ := crmScenario(30)
	v := cc.NewSet(mdm.Phi0())
	q := mdm.Q0("908")
	b.Run("Q0/phi0", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RCQPCtx(context.Background(), q, s.Dm, v, s.Schemas); err != nil {
				b.Fatal(err)
			}
		}
	})
	vIND := cc.NewSet(mdm.CidIND())
	q2 := mdm.Q2("e00")
	b.Run("Q2/cidIND", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RCQPCtx(context.Background(), q2, s.Dm, vIND, s.Schemas); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Parallel engine (workers ablation)
// ---------------------------------------------------------------------

// benchWorkerCounts is the workers axis for the parallel-engine series:
// the sequential ablation (1), the hardware default (GOMAXPROCS), and a
// fixed oversubscribed point (8) so the series is comparable across
// machines. Duplicates are removed.
func benchWorkerCounts() []int {
	counts := []int{1, runtime.GOMAXPROCS(0), 8}
	seen := map[int]bool{}
	var out []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkRCDP_Workers is the sequential-vs-parallel series on the
// ∀∃-3SAT RCDP family: the same instances as
// BenchmarkRCDP_CQ_INDs_ForallExists, swept over the workers axis.
// Verdicts and witnesses are identical across the axis (see
// TestParallelRCDPMatchesSequential); only wall-clock may differ.
func BenchmarkRCDP_Workers(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		inst := forallExistsInstance(b, n)
		for _, w := range benchWorkerCounts() {
			ck := &core.Checker{Workers: w}
			b.Run(fmt.Sprintf("vars=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ck.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRCQP_Workers is the workers series on the coNP 3SAT RCQP
// family (E3/E4 disjunct races plus nested RCDP confirmations on the
// shared pool).
func BenchmarkRCQP_Workers(b *testing.B) {
	for _, n := range []int{8, 12} {
		phi := benchCNF(n, 3*n, int64(n)+17)
		inst, err := reductions.ThreeSATToRCQP(phi)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range benchWorkerCounts() {
			ck := &core.QPChecker{Checker: core.Checker{Workers: w}}
			b.Run(fmt.Sprintf("vars=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ck.RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md ABL-1..3)
// ---------------------------------------------------------------------

// BenchmarkAblationSearch compares the optimized valuation search
// (inequality pruning, IND pruning, inert-variable collapsing,
// relevant-value restriction, fresh symmetry) against the naive full
// Adom product. The instance is deliberately tiny — on anything larger
// the naive mode does not terminate in reasonable time, which is itself
// the ablation's headline result (the ∀∃-3SAT family at 4 variables
// already has ~15 tableau variables over a dozen-value Adom, i.e. a
// naive product beyond 10¹⁵ leaves).
func BenchmarkAblationSearch(b *testing.B) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	d := relation.NewDatabase(mdm.Schemas()[mdm.Supt])
	d.MustAdd(mdm.Supt, "e0", "s", "c1")
	d.MustAdd(mdm.Supt, "e0", "s", "c2")
	dm := relation.NewDatabase(relation.NewSchema("M", relation.Attr("x")))
	q := mdm.Q2("e0")
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RCDPCtx(context.Background(), q, d, dm, vset); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		ck := &core.Checker{Naive: true}
		for i := 0; i < b.N; i++ {
			if _, err := ck.RCDPCtx(context.Background(), q, d, dm, vset); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDeltaCC compares differential constraint checking
// against full re-evaluation on extension checks.
func BenchmarkAblationDeltaCC(b *testing.B) {
	s, v := crmScenario(200)
	delta := relation.NewDatabase(mdm.Schemas()[mdm.Supt])
	delta.MustAdd(mdm.Supt, "e00", "sales", "c019")
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.SatisfiedDelta(s.D, delta, s.Dm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			union := s.D.Union(delta)
			if _, err := v.Satisfied(union, s.Dm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------

func BenchmarkCQEvalJoin(b *testing.B) {
	for _, n := range []int{100, 1000} {
		s, _ := crmScenario(n / 2)
		q := qlang.Underlying(mdm.Q0("908")).(*cq.CQ)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Eval(s.D)
			}
		})
	}
}

// BenchmarkEvalGateOverhead measures the governance tax on the hot
// evaluation path: the same CQ join evaluated with a nil gate (the
// ungoverned fast path, identical to Eval) and under a live gate with
// uncapped budgets, where every join row pays an atomic increment plus
// a cancellation check. EXPERIMENTS.md records the series; the target
// is < 3% overhead.
func BenchmarkEvalGateOverhead(b *testing.B) {
	for _, mode := range []string{"ungated", "gated"} {
		b.Run(mode, func(b *testing.B) {
			s, _ := crmScenario(500)
			q := qlang.Underlying(mdm.Q0("908")).(*cq.CQ)
			var g *query.Gate
			if mode == "gated" {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				g = query.NewGate(ctx, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.EvalGate(s.D, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the instrumentation tax of the obs
// metrics layer: the same workload with collection enabled (the
// default) and disabled (obs.SetEnabled(false) turns every counter
// flush into a no-op, leaving only the dead branch). Each iteration
// runs the workload once in each mode, alternating which mode goes
// first, so a change in the host's speed during the run lands on both
// modes alike. It reports the mean ns of one run per mode and their
// ratio (enabled/disabled). The acceptance target is a ratio ≤ 1.05 on
// both the raw CQ evaluation hot path and a full RCDP check; per-row
// costs are stack-local (see internal/obs), so the difference is a
// handful of atomic adds per evaluation.
func BenchmarkObsOverhead(b *testing.B) {
	for _, w := range []struct {
		name  string
		setup func() func() error
	}{
		{"eval", func() func() error {
			s, _ := crmScenario(500)
			q := qlang.Underlying(mdm.Q0("908")).(*cq.CQ)
			return func() error { q.Eval(s.D); return nil }
		}},
		{"rcdp", func() func() error {
			s, v := crmScenario(200)
			q := mdm.Q0("908")
			return func() error {
				_, err := core.RCDPCtx(context.Background(), q, s.D, s.Dm, v)
				return err
			}
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			run := w.setup()
			// One untimed run builds the indexes and memos, so neither
			// mode pays for them.
			if err := run(); err != nil {
				b.Fatal(err)
			}
			defer obs.SetEnabled(obs.SetEnabled(true))
			var spent [2]time.Duration // mode 0 enabled, mode 1 disabled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2; j++ {
					mode := (i + j) % 2
					obs.SetEnabled(mode == 0)
					start := time.Now()
					if err := run(); err != nil {
						b.Fatal(err)
					}
					spent[mode] += time.Since(start)
				}
			}
			on, off := float64(spent[0])/float64(b.N), float64(spent[1])/float64(b.N)
			b.ReportMetric(on, "enabled-ns/run")
			b.ReportMetric(off, "disabled-ns/run")
			b.ReportMetric(on/off, "enabled/disabled")
		})
	}
}

func BenchmarkDatalogTC(b *testing.B) {
	for _, n := range []int{50, 200} {
		e := relation.NewSchema("E", relation.Attr("a"), relation.Attr("b"))
		d := relation.NewDatabase(e)
		for i := 0; i < n; i++ {
			d.MustAdd("E", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
		}
		p := datalog.TransitiveClosure("E", "TC")
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Eval(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConstraintCheck(b *testing.B) {
	s, v := crmScenario(400)
	b.Run("satisfied", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, err := v.Satisfied(s.D, s.Dm); err != nil || !ok {
				b.Fatal("constraints must hold")
			}
		}
	})
}

// benchCNF is a deterministic random CNF generator (no math/rand to
// keep benchmark inputs stable across runs).
func benchCNF(nVars, nClauses int, seed int64) *sat.CNF {
	f := sat.NewCNF(nVars)
	s := seed
	next := func(m int) int {
		s = s*6364136223846793005 + 1442695040888963407
		v := int((s >> 33) % int64(m))
		if v < 0 {
			v += m
		}
		return v
	}
	for i := 0; i < nClauses; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(next(nVars) + 1)
			if next(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// areaUnion and areaEFO mirror the relbench workload builders.
func areaUnion(disjuncts int) qlang.Query {
	codes := []string{"908", "973", "201", "609", "212", "914"}
	if disjuncts > len(codes) {
		disjuncts = len(codes)
	}
	var ds []*cq.CQ
	for i := 0; i < disjuncts; i++ {
		c, n, ccv, a, p := query.Var("C"), query.Var("N"), query.Var("CC"), query.Var("A"), query.Var("P")
		e, dd := query.Var("E"), query.Var("D")
		ds = append(ds, cq.New(fmt.Sprintf("U%d", i+1), []query.Term{c},
			[]query.RelAtom{
				query.Atom(mdm.Cust, c, n, ccv, a, p),
				query.Atom(mdm.Supt, e, dd, c),
			},
			query.Eq(ccv, query.C("01")),
			query.Eq(a, query.C(codes[i]))))
	}
	return qlang.FromUCQ(cq.Union("U", ds...))
}

func areaEFO(width int) qlang.Query {
	codes := []string{"908", "973", "201", "609"}
	if width > len(codes) {
		width = len(codes)
	}
	c, n, ccv, a, p := query.Var("C"), query.Var("N"), query.Var("CC"), query.Var("A"), query.Var("P")
	e, dd := query.Var("E"), query.Var("D")
	var opts []cq.EFO
	for i := 0; i < width; i++ {
		opts = append(opts, cq.FEq(a, query.C(codes[i])))
	}
	body := cq.And(
		cq.FAtom(mdm.Cust, c, n, ccv, a, p),
		cq.FAtom(mdm.Supt, e, dd, c),
		cq.FEq(ccv, query.C("01")),
		cq.Or(opts...),
	)
	return qlang.FromEFO(cq.NewEFO("Qefo", []query.Term{c}, body))
}

// ---------------------------------------------------------------------
// Serving layer — batch amortization
// ---------------------------------------------------------------------

// batchBenchServer starts a relserve instance with a generated CRM
// catalog registered, mirroring the relgen/relserve production shape
// so the benchmark measures the real serving path (HTTP, JSON decode,
// db-facts parse, admission) rather than the checker alone.
func batchBenchServer(b *testing.B) (*httptest.Server, string, string) {
	b.Helper()
	s := mdm.Generate(mdm.DefaultConfig())
	srv := server.New(server.Config{Workers: 1})
	_, err := srv.Catalog().Register("crm", textq.ProblemSource{
		Schemas:       textq.FormatSchemas(mdm.Schemas()),
		MasterSchemas: textq.FormatSchemas(mdm.MasterSchemas()),
		Master:        textq.FormatDatabase(s.Dm),
		Constraints:   "cc phi0(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0, 2]",
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	db := textq.FormatDatabase(s.D)
	query := "Q0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01, A = 908"
	return ts, db, query
}

// BenchmarkBatchAmortization compares N checks sent as N sequential
// POST /v1/rcdp requests against the same N sent as one POST /v1/batch:
// the batch pays the HTTP round-trip, JSON decode, catalog resolution,
// db-facts parse and the checks' (D, Dm, V) setup — partial closure,
// relevant values, the constants of Adom — once instead of N times, so
// its later items also charge fewer join rows. Both report ns/query for
// direct comparison; the ratio is the amortization factor recorded in
// EXPERIMENTS.md.
func BenchmarkBatchAmortization(b *testing.B) {
	const nQueries = 32
	ts, db, query := batchBenchServer(b)

	b.Run("sequential", func(b *testing.B) {
		body, err := json.Marshal(server.CheckRequest{Catalog: "crm", DB: db, Query: query})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := 0; q < nQueries; q++ {
				resp, err := http.Post(ts.URL+"/v1/rcdp", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var out server.CheckResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || out.Verdict == "" {
					b.Fatalf("status %d verdict %q", resp.StatusCode, out.Verdict)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nQueries), "ns/query")
	})

	b.Run("batch", func(b *testing.B) {
		queries := make([]string, nQueries)
		for i := range queries {
			queries[i] = query
		}
		body, err := json.Marshal(server.BatchRequest{Catalog: "crm", DB: db, Queries: queries})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			lines := 0
			dec := json.NewDecoder(resp.Body)
			for {
				var line server.BatchLine
				if err := dec.Decode(&line); err != nil {
					break
				}
				if line.Error != "" || line.Response == nil || line.Response.Verdict == "" {
					b.Fatalf("line %d: %+v", lines, line)
				}
				lines++
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || lines != nQueries {
				b.Fatalf("status %d, %d lines", resp.StatusCode, lines)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nQueries), "ns/query")
	})
}

// BenchmarkWitnessApproximate is one approximation run on an incomplete
// 40-customer CRM instance (seed 1, completeness 0.5; Q0("908"),
// φ₀ + φ₁(3), 64 lattice candidates, one worker). Every candidate is an
// RCDP oracle call, and most of each call is the per-valuation witness
// test (D ∪ μ(T), Dm) ⊨ V, so this measures that test's cost per
// valuation (see EXPERIMENTS.md, "Witness test on rows").
func BenchmarkWitnessApproximate(b *testing.B) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 40
	cfg.Employees = 4
	cfg.Completeness = 0.5
	s := mdm.Generate(cfg)
	v := cc.NewSet(mdm.Phi0(), mdm.Phi1(3))
	q := mdm.Q0("908")
	opts := approx.Options{Checker: &core.Checker{Workers: 1}, MaxCandidates: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := approx.Approximate(context.Background(), q, s.D, s.Dm, v, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Explored == 0 {
			b.Fatal("no lattice candidate explored")
		}
	}
}

// BenchmarkMine is one constraint-mining run on the evidence shape of
// relperf's analyze workload: 4 mdm pairs (seed 1) of 8 domestic and 3
// international customers with saturated support and 2 unregistered
// domestic customers, mined with relserve's /v1/mine defaults (256
// candidates, one oracle worker). It covers candidate scoring over
// every pair and the RCDP oracle on the survivors (see EXPERIMENTS.md,
// "Constraint mining").
func BenchmarkMine(b *testing.B) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 8
	cfg.InternationalCustomers = 3
	cfg.SaturateSupport = true
	cfg.UnregisteredDomestic = 2
	var pairs []mine.Pair
	for _, s := range mdm.Evidence(cfg, 4) {
		pairs = append(pairs, mine.Pair{D: s.D, Dm: s.Dm})
	}
	opt := mine.Options{MaxCandidates: 256, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mine.Mine(context.Background(), pairs, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Mined) == 0 {
			b.Fatal("nothing mined")
		}
	}
}

// crm400 is the CRM scenario of the serving benchmark's catalog
// workload: 400 domestic customers at completeness 0.85.
var crm400 = mdm.Config{Seed: 1, DomesticCustomers: 400, InternationalCustomers: 40,
	Employees: 40, SupportPerEmployee: 3, MaxSupport: 3, Completeness: 0.85, ManageDepth: 4}

// BenchmarkParseFacts parses a request-sized fact list: the D of
// crm400, in the textq grammar. Its values are interned before the
// timer starts, as on a warm server.
func BenchmarkParseFacts(b *testing.B) {
	src := textq.FormatDatabase(mdm.Generate(crm400).D)
	schemas := mdm.Schemas()
	if _, err := textq.ParseFacts(src, schemas); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := textq.ParseFacts(src, schemas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild builds the columnar index of crm400's D the way
// a request that carries D inline does: the rank permutation and
// rank-ordered columns of every relation, then every column's posting
// containers. Each iteration indexes fresh clones, made while the
// timer is stopped.
func BenchmarkIndexBuild(b *testing.B) {
	d := mdm.Generate(crm400).D
	build := func(db *relation.Database) {
		for _, name := range db.Relations() {
			ix := db.Instance(name).IDs()
			for c, col := range ix.Cols() {
				if len(col) > 0 {
					ix.Postings(c, col[0])
				}
			}
		}
	}
	build(d.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := d.Clone()
		b.StartTimer()
		build(db)
	}
}
