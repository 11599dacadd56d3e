// Command relcheck decides relative information completeness for a
// query over a partially closed database, per Fan & Geerts: it runs
// RCDP (is this database complete for the query relative to the master
// data and containment constraints?) and/or RCQP (does any complete
// database exist?), printing verdicts and witnesses.
//
// Usage:
//
//	relcheck -schemas r.schema -master-schemas rm.schema \
//	         -db d.facts -master dm.facts \
//	         -constraints v.cc -query q.cq [-mode rcdp|rcqp|both]
//	         [-degree] [-approximate] [-advise]
//	         [-timeout D] [-steps N] [-metrics addr] [-trace file]
//
// All files use the textq format (see package repro/internal/textq).
// -timeout and -steps bound the decision procedures (wall clock and
// join-row steps); a governed stop prints an UNKNOWN verdict naming the
// exhausted dimension instead of running unboundedly — the Σ₂ᵖ/Σ₃ᵖ
// lower bounds mean no useful completion deadline can be promised.
//
// When the RCDP verdict is INCOMPLETE, -approximate searches the
// selection lattice for certified-complete specializations and
// generalizations of the query, and -advise prints ranked tuple
// acquisitions whose insertion flips the verdict to COMPLETE (both via
// package repro/internal/approx; every printed result is re-certified
// by the exact checker).
//
// -metrics serves the observability endpoint of package
// repro/internal/obs (Prometheus text at /metrics, expvar JSON at
// /debug/vars, pprof under /debug/pprof/) for the lifetime of the
// process; -trace streams structured JSONL search events to a file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

func main() {
	var (
		schemasPath   = flag.String("schemas", "", "database schema declarations (required)")
		mSchemasPath  = flag.String("master-schemas", "", "master data schema declarations")
		dbPath        = flag.String("db", "", "database facts (required for rcdp)")
		masterPath    = flag.String("master", "", "master data facts")
		constraintsPp = flag.String("constraints", "", "containment constraints")
		queryPath     = flag.String("query", "", "query (required)")
		mode          = flag.String("mode", "rcdp", "rcdp, rcqp or both")
		degree        = flag.Bool("degree", false, "also measure the quantitative degree of completeness (fraction of covered candidate valuations)")
		approximate   = flag.Bool("approximate", false, "on an incomplete rcdp verdict, print certified-complete specializations and generalizations of the query")
		advise        = flag.Bool("advise", false, "on an incomplete rcdp verdict, print ranked tuple acquisitions that make the database complete")
		verbose       = flag.Bool("v", false, "print inputs before deciding")
		timeout       = flag.Duration("timeout", 0, "wall-clock budget per check (0 = unlimited)")
		steps         = flag.Int64("steps", 0, "join-row step budget per check (0 = unlimited)")
		metricsAddr   = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		tracePath     = flag.String("trace", "", "append JSONL search-trace events to this file")
	)
	flag.Parse()
	if *metricsAddr != "" {
		addr, err := obs.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relcheck: -metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "relcheck: metrics on http://%s/metrics\n", addr)
	}
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relcheck: -trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		tr := obs.NewTracer(f)
		tr.Timings = true
		obs.SetTracer(tr)
		defer func() {
			obs.SetTracer(nil)
			if err := tr.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "relcheck: -trace:", err)
			}
		}()
	}
	budget := core.Budget{Timeout: *timeout, MaxJoinRows: *steps}
	if err := run(*schemasPath, *mSchemasPath, *dbPath, *masterPath, *constraintsPp, *queryPath, *mode, *verbose, *approximate, *advise, *degree, budget); err != nil {
		fmt.Fprintln(os.Stderr, "relcheck:", err)
		os.Exit(1)
	}
}

func run(schemasPath, mSchemasPath, dbPath, masterPath, constraintsPath, queryPath, mode string, verbose, approximate, advise, degree bool, budget core.Budget) error {
	if schemasPath == "" || queryPath == "" {
		return fmt.Errorf("-schemas and -query are required")
	}
	src := textq.ProblemSource{}
	for _, part := range []struct {
		dst  *string
		path string
	}{
		{&src.Schemas, schemasPath},
		{&src.MasterSchemas, mSchemasPath},
		{&src.DB, dbPath},
		{&src.Master, masterPath},
		{&src.Constraints, constraintsPath},
		{&src.Query, queryPath},
	} {
		if part.path == "" {
			continue
		}
		text, err := os.ReadFile(part.path)
		if err != nil {
			return err
		}
		*part.dst = string(text)
	}
	p, err := textq.ParseProblem(src)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Printf("query (%v):\n%s\n\nconstraints:\n%s\n\n", p.Q.Lang(), p.Q, p.V)
	}

	doRCDP := mode == "rcdp" || mode == "both"
	doRCQP := mode == "rcqp" || mode == "both"
	if !doRCDP && !doRCQP {
		return fmt.Errorf("unknown -mode %q", mode)
	}

	if doRCDP {
		if dbPath == "" {
			return fmt.Errorf("-db is required for rcdp")
		}
		if err := reportRCDP(p.Q, p.D, p.Dm, p.V, budget); err != nil {
			return err
		}
		if degree {
			if err := reportDegree(p.Q, p.D, p.Dm, p.V, budget); err != nil {
				return err
			}
		}
		if approximate {
			if err := reportApproximate(p.Q, p.D, p.Dm, p.V, budget); err != nil {
				return err
			}
		}
		if advise {
			if err := reportAdvise(p.Q, p.D, p.Dm, p.V, budget); err != nil {
				return err
			}
		}
	}
	if doRCQP {
		if err := reportRCQP(p.Q, p.Dm, p.V, p.Schemas, budget); err != nil {
			return err
		}
	}
	return nil
}

// governedStop renders an Unknown verdict's budget report.
func governedStop(reason core.Reason, stats core.BudgetStats) string {
	return fmt.Sprintf("stopped by %s budget (rows=%d, tuples=%d, elapsed=%v)",
		reason, stats.JoinRows, stats.Tuples, stats.Elapsed.Round(time.Millisecond))
}

func reportRCDP(q qlang.Query, d, dm *relation.Database, vset *cc.Set, budget core.Budget) error {
	if !q.Lang().Monotone() || !vset.AllMonotone() {
		r, err := core.BoundedRCDPCtx(context.Background(), q, d, dm, vset, core.BoundedOpts{Budget: budget})
		if err != nil {
			return err
		}
		if r.Verdict == core.VerdictUnknown {
			fmt.Printf("RCDP: UNKNOWN (undecidable fragment, bounded search) — %s\n", governedStop(r.Reason, r.Stats))
			return nil
		}
		if r.Verdict == core.VerdictIncomplete {
			fmt.Printf("RCDP: INCOMPLETE (undecidable fragment, bounded search)\n  extension:\n%s", indent(r.Extension.String()))
			if r.NewTuple != nil {
				fmt.Printf("  new answer: %v\n", r.NewTuple)
			}
		} else {
			fmt.Printf("RCDP: complete up to extensions of %d tuples (undecidable fragment — Theorem 3.1; %d candidates explored)\n", r.MaxAdd, r.Stats.Valuations)
		}
		return nil
	}
	ck := core.Checker{Budget: budget}
	r, err := ck.RCDPCtx(context.Background(), q, d, dm, vset)
	if err != nil {
		return err
	}
	if r.Verdict == core.VerdictUnknown {
		fmt.Printf("RCDP: UNKNOWN — %s\n", governedStop(r.Reason, r.Stats))
		return nil
	}
	if r.Verdict == core.VerdictComplete {
		fmt.Printf("RCDP: COMPLETE — D answers the query completely relative to (Dm, V) (%d valuations checked)\n", r.Stats.Valuations)
		return nil
	}
	fmt.Printf("RCDP: INCOMPLETE — the following partially closed extension changes the answer:\n%s  new answer: %v\n",
		indent(r.Extension.String()), r.NewTuple)
	return nil
}

// reportDegree runs the counting enumeration of core.DegreeCtx and
// prints the covered fraction: exact on exhaustive runs, a prefix-
// sample estimate with its Wilson 95% interval under a budget.
func reportDegree(q qlang.Query, d, dm *relation.Database, vset *cc.Set, budget core.Budget) error {
	if !q.Lang().Monotone() || !vset.AllMonotone() {
		return fmt.Errorf("-degree needs the monotone (decidable) fragment")
	}
	ck := core.Checker{Budget: budget}
	res, err := ck.DegreeCtx(context.Background(), q, d, dm, vset)
	if err != nil {
		return err
	}
	if res.Exact {
		fmt.Printf("DEGREE: %.4f exact (%d candidate valuations, %d counterexamples)\n",
			res.Degree, res.Candidates, res.Counterexamples)
		return nil
	}
	fmt.Printf("DEGREE: %.4f estimated in [%.4f, %.4f] (95%% CI; %d candidates sampled, %d counterexamples) — %s\n",
		res.Degree, res.Lo, res.Hi, res.Candidates, res.Counterexamples,
		governedStop(res.Reason, res.Stats))
	return nil
}

func reportRCQP(q qlang.Query, dm *relation.Database, vset *cc.Set, schemas map[string]*relation.Schema, budget core.Budget) error {
	if !q.Lang().Monotone() || !vset.AllMonotone() {
		return fmt.Errorf("RCQP for FO/FP inputs is undecidable (Theorem 4.1); no bounded mode is wired into relcheck")
	}
	ck := core.QPChecker{Checker: core.Checker{Budget: budget}}
	res, err := ck.RCQPCtx(context.Background(), q, dm, vset, schemas)
	if err != nil {
		return err
	}
	if res.Status == core.Unknown && res.Reason != core.ReasonNone {
		fmt.Printf("RCQP: UNKNOWN — %s\n", governedStop(res.Reason, res.Stats))
		return nil
	}
	switch res.Status {
	case core.Yes:
		fmt.Printf("RCQP: YES — a relatively complete database exists (method %s)\n", res.Method)
		if res.Witness != nil {
			fmt.Printf("  witness (verified complete):\n%s", indent(res.Witness.String()))
		}
	case core.No:
		fmt.Printf("RCQP: NO — no database is complete for this query (method %s)\n  %s\n", res.Method, res.Detail)
	default:
		fmt.Printf("RCQP: UNKNOWN — %s\n", res.Detail)
	}
	return nil
}

// reportApproximate runs the specialization/generalization lattice
// search of package approx and prints every certified-complete
// candidate. On a COMPLETE or UNKNOWN base verdict it reports that
// nothing needed approximating.
func reportApproximate(q qlang.Query, d, dm *relation.Database, vset *cc.Set, budget core.Budget) error {
	res, err := approx.Approximate(context.Background(), q, d, dm, vset,
		approx.Options{Checker: &core.Checker{Budget: budget}})
	if err != nil {
		return fmt.Errorf("-approximate: %w", err)
	}
	if res.Verdict != core.VerdictIncomplete {
		fmt.Printf("APPROX: nothing to approximate — base verdict is %s\n", res.Verdict)
		return nil
	}
	fmt.Printf("APPROX: %d candidates explored, %d certified complete\n", res.Explored, res.Certified)
	for _, spec := range res.Specializations {
		fmt.Printf("  specialization (certified COMPLETE):\n%s", indent(formatCandidate(spec.Query)))
	}
	for _, gen := range res.Generalizations {
		var dropped []string
		for _, c := range gen.Dropped {
			v, val := c.L, c.R
			if !v.IsVar {
				v, val = c.R, c.L
			}
			dropped = append(dropped, v.Name+" = "+string(val.Val))
		}
		fmt.Printf("  generalization (certified COMPLETE, dropped %s):\n%s",
			strings.Join(dropped, ", "), indent(formatCandidate(gen.Query)))
	}
	if len(res.Specializations) == 0 && len(res.Generalizations) == 0 {
		fmt.Println("  no certified-complete approximation within the search bounds")
	}
	return nil
}

// reportAdvise runs the witness-driven acquisition loop of package
// approx and prints the ranked tuples whose insertion flips the
// verdict, fact-formatted so they can be appended to the -db file.
func reportAdvise(q qlang.Query, d, dm *relation.Database, vset *cc.Set, budget core.Budget) error {
	adv, err := approx.Advise(context.Background(), q, d, dm, vset,
		approx.Options{Checker: &core.Checker{Budget: budget}})
	if err != nil {
		return fmt.Errorf("-advise: %w", err)
	}
	if adv.Verdict != core.VerdictIncomplete {
		fmt.Printf("ADVISE: nothing to acquire — base verdict is %s\n", adv.Verdict)
		return nil
	}
	if adv.Flipped {
		fmt.Printf("ADVISE: acquiring the following %d tuples makes D COMPLETE (%d witness rounds; ⊥ values are placeholders to resolve):\n",
			len(adv.Items), adv.Rounds)
	} else {
		fmt.Printf("ADVISE: no certified flip within %d witness rounds; partial advice (final verdict %s):\n",
			adv.Rounds, adv.Final)
	}
	for _, it := range adv.Items {
		fmt.Printf("    %s\n", textq.FormatFact(it.Relation, it.Tuple))
	}
	return nil
}

// formatCandidate renders an approximation candidate in the textq
// grammar, falling back to Go syntax if formatting fails.
func formatCandidate(q *cq.CQ) string {
	src, err := textq.FormatQuery(qlang.FromCQ(q))
	if err != nil {
		return q.String()
	}
	return strings.TrimRight(src, "\n")
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
