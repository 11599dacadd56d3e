// Command relbench regenerates the evaluation artifacts of Fan &
// Geerts — the complexity tables I (RCDP) and II (RCQP) — empirically:
// for every decidable row it validates the decision procedure against
// an independent ground truth and reports runtime scaling on the
// hardness-reduction workload of that row's proof; for every
// undecidable row it validates the executable reduction on bounded
// instances. See EXPERIMENTS.md for the recorded results.
//
// Usage: relbench [-table 0|1|2|3] [-quick] [-workers N] [-json]
//
//	[-timeout D] [-steps N] [-metrics addr] [-trace file]
//
// -timeout and -steps govern every timed check (wall-clock deadline and
// join-row step budget respectively); a check stopped by governance
// reports verdict "unknown" with the exhausted dimension as its reason.
// -metrics serves the repro/internal/obs endpoint (Prometheus text,
// expvar, pprof) while the sweeps run; -trace streams JSONL search
// events to a file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/automata"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/mdm"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/tiling"
)

var (
	// checker carries the -workers setting into every sweep (1 =
	// sequential engine, >1 = parallel valuation search).
	checker  core.Checker
	jsonMode bool
	records  []benchRecord
)

// benchRecord is one timed sweep data point for -json output. Verdict
// and Reason report the governed outcome: verdict "unknown" plus the
// exhausted dimension when -timeout/-steps stopped the check, empty
// reason otherwise.
type benchRecord struct {
	Table       string `json:"table"`
	Name        string `json:"name"`
	Param       int    `json:"param"`
	Workers     int    `json:"workers"`
	DurationNS  int64  `json:"duration_ns"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Agree       *bool  `json:"agree,omitempty"`
	Verdict     string `json:"verdict,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

func record(table, name string, param int, dur time.Duration, allocs int64, agree *bool, verdict string, reason core.Reason) {
	records = append(records, benchRecord{
		Table: table, Name: name, Param: param, Workers: checker.Workers,
		DurationNS: dur.Nanoseconds(), AllocsPerOp: allocs, Agree: agree,
		Verdict: verdict, Reason: reason.String(),
	})
}

// timed runs f once, returning its wall time and the heap allocation
// count attributable to the run (total Mallocs delta across all
// goroutines — comparable between runs at equal -workers).
func timed(f func() error) (time.Duration, int64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	err := f()
	dur := time.Since(start)
	runtime.ReadMemStats(&ms)
	return dur, int64(ms.Mallocs - before), err
}

func main() {
	table := flag.Int("table", 0, "which table to regenerate (1, 2, 3 = incremental maintenance, or 0 for all)")
	quick := flag.Bool("quick", false, "smaller sweeps")
	workers := flag.Int("workers", 0, "valuation-search workers (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per governed check (0 = unlimited)")
	steps := flag.Int64("steps", 0, "join-row step budget per governed check (0 = unlimited)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	tracePath := flag.String("trace", "", "append JSONL search-trace events to this file")
	flag.BoolVar(&jsonMode, "json", false, "emit timed sweep results as JSON instead of tables")
	flag.Parse()
	if *metricsAddr != "" {
		addr, err := obs.Serve(*metricsAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "relbench: metrics on http://%s/metrics\n", addr)
	}
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		tr := obs.NewTracer(f)
		tr.Timings = true
		obs.SetTracer(tr)
		defer func() {
			obs.SetTracer(nil)
			if err := tr.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "relbench: -trace:", err)
			}
		}()
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	checker = core.Checker{Workers: *workers,
		Budget: core.Budget{Timeout: *timeout, MaxJoinRows: *steps}}
	if *table == 0 || *table == 1 {
		if err := tableI(*quick); err != nil {
			fail(err)
		}
	}
	if *table == 0 || *table == 2 {
		if err := tableII(*quick); err != nil {
			fail(err)
		}
	}
	if *table == 0 || *table == 3 {
		if err := tableIncremental(*quick); err != nil {
			fail(err)
		}
	}
	if jsonMode {
		if records == nil {
			records = []benchRecord{} // emit [] rather than null when no sweeps ran
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "relbench:", err)
	os.Exit(1)
}

func header(s string) {
	if jsonMode {
		return
	}
	fmt.Printf("\n%s\n", s)
	for range s {
		fmt.Print("=")
	}
	fmt.Println()
}

func row(format string, args ...any) {
	if jsonMode {
		return
	}
	fmt.Printf("  "+format+"\n", args...)
}

// ---------------------------------------------------------------------
// Table I — RCDP(L_Q, L_C)
// ---------------------------------------------------------------------

func tableI(quick bool) error {
	header("Table I — complexity of RCDP(L_Q, L_C)")

	// Rows 1–4: undecidable (Theorem 3.1). Validate the reductions.
	n, err := validateFOSatRCDP()
	if err != nil {
		return err
	}
	row("(FO, CQ)          undecidable   [Thm 3.1(1)] FO-sat reduction validated on %d instances", n)
	row("(CQ, FO)          undecidable   [Thm 3.1(2)] FO-sat reduction validated on %d instances", n)
	n, err = validateDFASimulation()
	if err != nil {
		return err
	}
	row("(FP, CQ)          undecidable   [Thm 3.1(3)] 2-head-DFA simulation validated on %d words", n)
	row("(fixed FP, FP)    undecidable   [Thm 3.1(4)] same machine model (bounded demo)")

	// Row 5: (CQ/UCQ/∃FO⁺, INDs) — Σ₂ᵖ-complete. Query-complexity sweep
	// on the ∀∃-3SAT reduction (exponential) + data-complexity sweep on
	// the CRM workload (polynomial).
	sizes := []int{4, 6, 8}
	if !quick {
		sizes = append(sizes, 10, 12)
	}
	if !jsonMode {
		fmt.Println()
	}
	row("(CQ, INDs)        Σ₂ᵖ-complete  [Thm 3.6(1)] ∀∃-3SAT query-complexity sweep (fixed Dm, V — Cor 3.7):")
	for _, nv := range sizes {
		dur, agree, err := sweepForallExists(nv)
		if err != nil {
			return err
		}
		row("    |X|+|Y| = %2d vars: %10v   (verdict agrees with QBF: %v)", nv, dur, agree)
	}
	row("(CQ, CQ)          Σ₂ᵖ-complete  [Thm 3.6(2)] CRM data-complexity sweep (fixed Q0, φ0; growing D):")
	dataSizes := []int{50, 100, 200}
	if !quick {
		dataSizes = append(dataSizes, 400, 800)
	}
	for _, dc := range dataSizes {
		dur, err := sweepCRMData(dc)
		if err != nil {
			return err
		}
		row("    |DCust| = %4d: %10v", dc, dur)
	}
	durU, err := sweepUCQ(4)
	if err != nil {
		return err
	}
	row("(UCQ, UCQ)        Σ₂ᵖ-complete  [Thm 3.6(3)] 4-disjunct union on CRM: %v", durU)
	durE, err := sweepEFO()
	if err != nil {
		return err
	}
	row("(∃FO⁺, ∃FO⁺)      Σ₂ᵖ-complete  [Thm 3.6(4)] ∃FO⁺ via DNF expansion: %v", durE)
	return nil
}

// validateFOSatRCDP runs the Theorem 3.1(1)/(2) reductions on FO queries
// with known satisfiability.
func validateFOSatRCDP() (int, error) {
	x, y := query.Var("x"), query.Var("y")
	cases := []struct {
		q   *fo.Query
		sat bool
	}{
		{fo.NewQuery("q", nil, fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNeq(x, y)))), true},
		{fo.NewQuery("q", nil, fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNot(fo.FAtom("E", x, y))))), false},
		{fo.NewQuery("q", nil, fo.FExists([]string{"x"}, fo.FAtom("E", x, x))), true},
	}
	count := 0
	for _, c := range cases {
		for _, build := range []func(*fo.Query) (*reductions.RCDPInstance, error){
			reductions.FOSatToRCDP, reductions.FOSatToRCDPviaCC,
		} {
			inst, err := build(c.q)
			if err != nil {
				return 0, err
			}
			r, err := core.BoundedRCDP(inst.Q, inst.D, inst.Dm, inst.V, core.BoundedOpts{MaxAdd: 1, FreshValues: 2})
			if err != nil {
				return 0, err
			}
			if r.Incomplete != c.sat {
				return 0, fmt.Errorf("FO-sat reduction disagrees on %s", c.q)
			}
			count++
		}
	}
	return count, nil
}

func validateDFASimulation() (int, error) {
	a := automata.New(3, 0, 2)
	for _, s := range []automata.Symbol{automata.Sym0, automata.Sym1} {
		a.AddWild2(0, s, 1, automata.Advance)
		a.AddWild2(1, s, 0, automata.Advance)
	}
	a.AddWild2(0, automata.Epsilon, 2, automata.Stay)
	words := []string{"", "0", "1", "01", "10", "010", "0101", "11011"}
	for _, ws := range words {
		sym, err := automata.Word(ws)
		if err != nil {
			return 0, err
		}
		got, err := reductions.DFAQueryAcceptsEncoding(a, sym)
		if err != nil {
			return 0, err
		}
		if got != a.Accepts(sym) {
			return 0, fmt.Errorf("DFA simulation mismatch on %q", ws)
		}
	}
	return len(words), nil
}

func randomCNFFor(nVars, nClauses int, seed int64) *sat.CNF {
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

func sweepForallExists(nVars int) (time.Duration, bool, error) {
	phi := randomCNFFor(nVars, nVars+2, int64(nVars))
	nX := nVars / 2
	inst, err := reductions.ForallExistsToRCDP(phi, nX)
	if err != nil {
		return 0, false, err
	}
	var r *core.RCDPResult
	dur, allocs, err := timed(func() error {
		var e error
		r, e = checker.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
		return e
	})
	if err != nil {
		return 0, false, err
	}
	if r.Verdict == core.VerdictUnknown {
		record("I", "forall-exists-3sat", nVars, dur, allocs, nil, r.Verdict.String(), r.Reason)
		return dur, true, nil
	}
	agree := true
	if nVars <= 10 {
		agree = r.Complete == sat.ForallExists(phi, nX)
	}
	record("I", "forall-exists-3sat", nVars, dur, allocs, &agree, r.Verdict.String(), r.Reason)
	return dur, agree, nil
}

func sweepCRMData(customers int) (time.Duration, error) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = customers
	cfg.Employees = customers / 10
	cfg.Completeness = 1.0
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))
	q := mdm.Q0("908")
	var r *core.RCDPResult
	dur, allocs, err := timed(func() error {
		var e error
		r, e = checker.RCDPCtx(context.Background(), q, s.D, s.Dm, vset)
		return e
	})
	if err != nil {
		return 0, err
	}
	record("I", "crm-data", customers, dur, allocs, nil, r.Verdict.String(), r.Reason)
	return dur, nil
}

func sweepUCQ(disjuncts int) (time.Duration, error) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 50
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0())
	u := buildAreaUnion(disjuncts)
	var r *core.RCDPResult
	dur, allocs, err := timed(func() error {
		var e error
		r, e = checker.RCDPCtx(context.Background(), u, s.D, s.Dm, vset)
		return e
	})
	if err != nil {
		return 0, err
	}
	record("I", "ucq-union", disjuncts, dur, allocs, nil, r.Verdict.String(), r.Reason)
	return dur, nil
}

func sweepEFO() (time.Duration, error) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 50
	s := mdm.Generate(cfg)
	vset := cc.NewSet(mdm.Phi0())
	q := buildAreaEFO()
	var r *core.RCDPResult
	dur, allocs, err := timed(func() error {
		var e error
		r, e = checker.RCDPCtx(context.Background(), q, s.D, s.Dm, vset)
		return e
	})
	if err != nil {
		return 0, err
	}
	record("I", "efo-dnf", 0, dur, allocs, nil, r.Verdict.String(), r.Reason)
	return dur, nil
}

// ---------------------------------------------------------------------
// Incremental maintenance — RecheckDelta vs cold RCDP
// ---------------------------------------------------------------------

// tableIncremental benchmarks the catalog-mutation maintenance path on
// the CRM scenario. The cold full decision procedure is the baseline;
// a master-side batch of duplicate tuples passes the extensional-
// invisibility gate and rides the cached verdict through RecheckDelta
// (at most a witness revalidation of work); a batch carrying fresh
// values fails the gate and falls through to a cold re-search over the
// incrementally patched indexes. Every recheck verdict is oracle-tested
// against an independent cold rerun over identically mutated data, and
// the gate-hit path must beat the cold baseline by at least 5×.
func tableIncremental(quick bool) error {
	header("Incremental maintenance — RecheckDelta vs cold RCDP")
	customers := 400
	if quick {
		customers = 100
	}
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = customers
	cfg.Employees = customers / 10
	cfg.Completeness = 1.0
	build := func() (*mdm.Scenario, *cc.Set) {
		return mdm.Generate(cfg), cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))
	}

	// Cold baseline: the full decision procedure from scratch.
	s, vset := build()
	q := mdm.Q0("908")
	var prev *core.RCDPResult
	durCold, allocs, err := timed(func() error {
		var e error
		prev, e = checker.RCDPCtx(context.Background(), q, s.D, s.Dm, vset)
		return e
	})
	if err != nil {
		return err
	}
	record("inc", "crm-cold", customers, durCold, allocs, nil, prev.Verdict.String(), prev.Reason)
	row("cold RCDP          |DCust| = %4d: %12v  (%s)", customers, durCold, prev.Verdict)

	// oracle reruns the cold procedure on a fresh scenario with the same
	// deltas applied and reports whether the verdicts agree.
	oracle := func(got *core.RCDPResult, deltas ...*core.Delta) (*bool, error) {
		s2, v2 := build()
		for _, dl := range deltas {
			if _, _, err := dl.Apply(s2.D, s2.Dm, v2); err != nil {
				return nil, err
			}
		}
		want, err := checker.RCDPCtx(context.Background(), mdm.Q0("908"), s2.D, s2.Dm, v2)
		if err != nil {
			return nil, err
		}
		agree := want.Verdict == got.Verdict
		return &agree, nil
	}

	// Gate hit: duplicate master tuples stay inside every pre-batch
	// p(Dm) projection and the active domain, so the cached verdict is
	// reused without re-searching.
	dup := append([]relation.Tuple(nil), s.Dm.Instance(mdm.DCust).Tuples()[:4]...)
	dlDup := &core.Delta{Master: true, Inserts: map[string][]relation.Tuple{mdm.DCust: dup}}
	var res *core.RCDPResult
	var reused bool
	durReuse, allocs, err := timed(func() error {
		var e error
		res, reused, e = checker.RecheckDeltaCtx(context.Background(), q, s.D, s.Dm, vset, prev, dlDup)
		return e
	})
	if err != nil {
		return err
	}
	if !reused {
		return fmt.Errorf("incremental: duplicate master batch missed the invisibility gate")
	}
	agree, err := oracle(res, dlDup)
	if err != nil {
		return err
	}
	if !*agree {
		return fmt.Errorf("incremental: reused verdict %s disagrees with the cold oracle", res.Verdict)
	}
	record("inc", "crm-recheck-reused", customers, durReuse, allocs, agree, res.Verdict.String(), res.Reason)
	row("recheck (reused)   |ΔDm|  = %4d: %12v  (%s, oracle agrees)", len(dup), durReuse, res.Verdict)

	// Gate miss: a tuple with values outside the active domain forces a
	// cold re-search, but over incrementally patched indexes and memos.
	fresh := relation.Tuple{"x999", "fresh-customer", "908", "5559999"}
	dlFresh := &core.Delta{Master: true, Inserts: map[string][]relation.Tuple{mdm.DCust: {fresh}}}
	var res2 *core.RCDPResult
	durMiss, allocs, err := timed(func() error {
		var e error
		res2, reused, e = checker.RecheckDeltaCtx(context.Background(), q, s.D, s.Dm, vset, res, dlFresh)
		return e
	})
	if err != nil {
		return err
	}
	if reused {
		return fmt.Errorf("incremental: fresh-value batch must not pass the invisibility gate")
	}
	agree2, err := oracle(res2, dlDup, dlFresh)
	if err != nil {
		return err
	}
	if !*agree2 {
		return fmt.Errorf("incremental: cold recheck verdict %s disagrees with the cold oracle", res2.Verdict)
	}
	record("inc", "crm-recheck-cold", customers, durMiss, allocs, agree2, res2.Verdict.String(), res2.Reason)
	row("recheck (cold)     |ΔDm|  = %4d: %12v  (%s, oracle agrees)", 1, durMiss, res2.Verdict)

	if durReuse*5 > durCold {
		return fmt.Errorf("incremental: reused recheck (%v) is not ≥5× faster than cold RCDP (%v)",
			durReuse, durCold)
	}
	row("gate-hit speedup: %.0f× over cold", float64(durCold)/float64(durReuse))
	return nil
}

// ---------------------------------------------------------------------
// Table II — RCQP(L_Q, L_C)
// ---------------------------------------------------------------------

func tableII(quick bool) error {
	header("Table II — complexity of RCQP(L_Q, L_C)")
	row("(FO, fixed FO)    undecidable   [Thm 4.1(1)] 2-head-DFA machinery (bounded demo)")
	n, err := validateFOSatRCQP()
	if err != nil {
		return err
	}
	row("(CQ, FO)          undecidable   [Thm 4.1(2)] FO-sat reduction validated on %d instances", n)
	row("(FP, fixed FP)    undecidable   [Thm 4.1(3)] 2-head-DFA machinery (bounded demo)")
	row("(CQ, FP)          undecidable   [Thm 4.1(4)] 2-head-DFA machinery (bounded demo)")

	if !jsonMode {
		fmt.Println()
	}
	sizes := []int{4, 8, 12}
	if !quick {
		sizes = append(sizes, 16, 20)
	}
	row("(CQ, INDs)        coNP-complete [Thm 4.5(1)] 3SAT sweep (fixed Dm, V):")
	for _, nv := range sizes {
		dur, agree, err := sweepThreeSAT(nv)
		if err != nil {
			return err
		}
		row("    %2d vars: %10v   (verdict agrees with DPLL: %v)", nv, dur, agree)
	}
	row("(CQ, CQ)          NEXPTIME-complete [Thm 4.5(2)] 2ⁿ×2ⁿ tiling:")
	for _, tn := range []int{1, 2} {
		dur, err := sweepTiling(tn)
		if err != nil {
			return err
		}
		row("    n = %d (%dx%d grid): %10v (witness construction + RCDP verification)", tn, 1<<tn, 1<<tn, dur)
	}
	row("(CQ, CQ) fixed    Σ₃ᵖ-complete  [Cor 4.6]   ∃∀∃-3SAT sweep:")
	efeSizes := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}}
	if !quick {
		efeSizes = append(efeSizes, [3]int{2, 2, 2})
	}
	for _, dims := range efeSizes {
		dur, agree, err := sweepEFE(dims[0], dims[1], dims[2])
		if err != nil {
			return err
		}
		row("    |X|,|Y|,|Z| = %d,%d,%d: %10v   (witness verdicts agree with QBF: %v)", dims[0], dims[1], dims[2], dur, agree)
	}
	return nil
}

func validateFOSatRCQP() (int, error) {
	x, y := query.Var("x"), query.Var("y")
	cases := []struct {
		q   *fo.Query
		sat bool
	}{
		{fo.NewQuery("q", nil, fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNeq(x, y)))), true},
		{fo.NewQuery("q", nil, fo.FExists([]string{"x", "y"},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNot(fo.FAtom("E", x, y))))), false},
	}
	for _, c := range cases {
		inst, err := reductions.FOSatToRCQP(c.q)
		if err != nil {
			return 0, err
		}
		br, err := core.BoundedRCQP(inst.Q, inst.Dm, inst.V, inst.Schemas, 1,
			core.BoundedOpts{MaxAdd: 2, FreshValues: 2})
		if err != nil {
			return 0, err
		}
		if br.Found == c.sat {
			return 0, fmt.Errorf("FO-sat RCQP reduction disagrees on %s", c.q)
		}
	}
	return len(cases), nil
}

func sweepThreeSAT(nVars int) (time.Duration, bool, error) {
	phi := randomCNFFor(nVars, 3*nVars, int64(nVars)+17)
	inst, err := reductions.ThreeSATToRCQP(phi)
	if err != nil {
		return 0, false, err
	}
	var res *core.RCQPResult
	dur, allocs, err := timed(func() error {
		var e error
		res, e = (&core.QPChecker{Checker: checker}).RCQPCtx(context.Background(), inst.Q, inst.Dm, inst.V, inst.Schemas)
		return e
	})
	if err != nil {
		return 0, false, err
	}
	if res.Status == core.Unknown && res.Reason != core.ReasonNone {
		record("II", "3sat-rcqp", nVars, dur, allocs, nil, res.Status.String(), res.Reason)
		return dur, true, nil
	}
	_, satisfiable := phi.Solve()
	agree := (res.Status == core.No) == satisfiable
	record("II", "3sat-rcqp", nVars, dur, allocs, &agree, res.Status.String(), res.Reason)
	return dur, agree, nil
}

func sweepTiling(n int) (time.Duration, error) {
	in := tiling.New(2, n)
	in.AllowV(0, 1)
	in.AllowV(1, 0)
	in.AllowH(0, 1)
	in.AllowH(1, 0)
	g, ok := in.Solve()
	if !ok {
		return 0, fmt.Errorf("checkerboard unsolvable")
	}
	inst, err := reductions.TilingToRCQP(in)
	if err != nil {
		return 0, err
	}
	var verdict core.Verdict
	var reason core.Reason
	dur, allocs, err := timed(func() error {
		w, e := reductions.TilingWitness(inst, in, g)
		if e != nil {
			return e
		}
		r, e := checker.RCDPCtx(context.Background(), inst.Q, w, inst.Dm, inst.V)
		if e != nil {
			return e
		}
		verdict, reason = r.Verdict, r.Reason
		if r.Verdict == core.VerdictUnknown {
			return nil
		}
		if !r.Complete {
			return fmt.Errorf("tiling witness rejected")
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	record("II", "tiling", n, dur, allocs, nil, verdict.String(), reason)
	return dur, nil
}

func sweepEFE(nX, nY, nZ int) (time.Duration, bool, error) {
	phi := randomCNFFor(nX+nY+nZ, nX+nY+nZ+1, int64(nX*100+nY*10+nZ))
	inst, err := reductions.ExistsForallExistsToRCQP(phi, nX, nY)
	if err != nil {
		return 0, false, err
	}
	agree := true
	var verdict core.Verdict
	var reason core.Reason
	dur, allocs, err := timed(func() error {
		witnessX, holds := sat.ExistsWitness(phi, nX, nY)
		if !holds {
			witnessX = map[int]bool{}
		}
		d := reductions.EFEWitness(inst, witnessX)
		r, e := checker.RCDPCtx(context.Background(), inst.Q, d, inst.Dm, inst.V)
		if e != nil {
			return e
		}
		verdict, reason = r.Verdict, r.Reason
		if r.Verdict != core.VerdictUnknown {
			agree = r.Complete == holds
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	record("II", "efe-3sat", nX+nY+nZ, dur, allocs, &agree, verdict.String(), reason)
	return dur, agree, nil
}
