package core

import (
	"context"
	"math"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Quantitative completeness. The RCDP verdict is boolean — one valid
// counterexample valuation makes D Incomplete however many candidate
// valuations are already covered — which makes verdicts useless for
// ranking ("which of these hundred databases is closest to complete?")
// and monitoring ("is the gap shrinking?"). Following the counting
// perspective of Arenas/Barceló/Monet on incomplete databases, DegreeCtx
// turns the same valuation search into a measure: enumerate the
// candidate valuations of every disjunct tableau and report the fraction
// that are NOT counterexamples — valuations whose head tuple is already
// answered, or whose extension violates V (so no legal world realizes
// it). A database complete for Q covers every candidate valuation, so
// Degree = 1.0 exactly characterizes the Complete verdict on exhaustive
// runs; an Incomplete database scores the covered fraction in [0, 1).
//
// The enumeration is governed by the same core.Budget as the decision
// procedures. When the budget stops the search early the result is a
// deterministic prefix sample of the candidate space (the search order
// is fixed), and the reported degree carries a Wilson 95% confidence
// interval for the covered proportion; exhaustive runs report the exact
// fraction with a collapsed interval. Sampling always enumerates on the
// calling goroutine regardless of Checker.Workers — each disjunct is the
// keyed-task search run in key order (valuationSearch.inOrder) — so the
// sampled prefix, and therefore the estimate, is scheduling-independent.

// DegreeResult is the outcome of a quantitative completeness check.
type DegreeResult struct {
	// Verdict is the three-valued outcome implied by the enumeration:
	// Complete when an exhaustive run found no counterexample,
	// Incomplete as soon as one counterexample valuation was seen
	// (exhaustive or not), Unknown when a budget stopped the sampling
	// before any counterexample appeared.
	Verdict Verdict
	// Degree is the covered fraction of inspected candidate valuations
	// in [0, 1]: 1.0 exactly when no counterexample was seen (and, on
	// exact runs, iff D is Complete for Q). It is clamped strictly below
	// 1.0 whenever Counterexamples > 0, so the degree=1.0 ⇔ Complete law
	// survives floating-point rounding on huge samples.
	Degree float64
	// Lo and Hi bound the covered proportion with a Wilson 95%
	// confidence interval on sampled runs; on exact runs both equal
	// Degree.
	Lo, Hi float64
	// Exact reports that the enumeration exhausted the candidate space:
	// Degree is then the true covered fraction, not an estimate.
	Exact bool
	// Candidates is the number of complete candidate valuations
	// inspected; Counterexamples is how many of them witnessed
	// incompleteness (valid extension, new answer).
	Candidates      int
	Counterexamples int
	// Reason names the governance dimension that ended a sampled run
	// (ReasonNone on exact runs).
	Reason Reason
	// Stats reports the resources consumed.
	Stats BudgetStats
}

// DegreeCtx measures the degree of completeness with the default
// checker. See Checker.DegreeCtx.
func DegreeCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*DegreeResult, error) {
	return (&Checker{}).DegreeCtx(ctx, q, d, dm, v)
}

// DegreeCtx measures how complete D is for Q relative to (Dm, V): the
// fraction of candidate valuations (over all disjunct tableaux, values
// in Adom) that are covered — already answered, or illegal under V.
// The same preconditions as RCDPCtx apply (monotone Q and V, D
// partially closed); genuine failures are errors, while governance
// stops degrade the result to a prefix-sample estimate with a
// confidence interval rather than erroring. The enumeration itself is
// sequential for deterministic sampling; ck.Budget governs it
// (MaxValuations caps inspected valuations per disjunct).
func (ck *Checker) DegreeCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*DegreeResult, error) {
	return ck.DegreePreparedCtx(ctx, q, Prepare(d, dm, v))
}

// DegreePreparedCtx is DegreeCtx over a prepared (D, Dm, V): a degree
// measured beside an RCDP check of the same database shares that
// check's handle, so the setup and the partial-closure test run once
// for both (see Prepared).
func (ck *Checker) DegreePreparedCtx(ctx context.Context, q qlang.Query, p *Prepared) (*DegreeResult, error) {
	co := startCheck("degree", 1)
	gv := newGovernor(ctx, ck.Budget)
	defer gv.close()
	res, err := ck.degree(q, p, gv)
	if err != nil {
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	co.done(res.Verdict.String(), res.Reason, res.Stats)
	mode := "exact"
	if !res.Exact {
		mode = "sampled"
	}
	obs.DegreeChecks.Inc(mode)
	obs.DegreeCandidates.Add(int64(res.Candidates))
	obs.DegreeCounterexamples.Add(int64(res.Counterexamples))
	return res, nil
}

// degree runs the counting enumeration under an optional governor.
func (ck *Checker) degree(q qlang.Query, p *Prepared, gv *governor) (*DegreeResult, error) {
	gate := gv.gateOf()
	res := &DegreeResult{Exact: true}
	visited := 0
	defer func() { res.Stats = gv.stats(visited) }()
	prep, err := ck.prepareRCDP(q, p, gate)
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			// Governance ended the run during setup (constraint check or
			// Q(D) evaluation): no candidates were inspected, so the
			// estimate is vacuous but the call is not a failure.
			res.Exact = false
			res.Reason = r
			res.finish()
			return res, nil
		}
		return nil, err
	}
	if prep == nil {
		// Unsatisfiable query: trivially complete, vacuously covered.
		res.finish()
		return res, nil
	}
	wc := newWitnessChecker(prep, gate, false)
	defer wc.flush()
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		// Each disjunct walks under its own controllers: its budget claim
		// must not cancel the disjuncts after it.
		_, bud, err := search.inOrder(ck.Budget.MaxValuations, func(_ *searchWorker, slots []int32) (any, error) {
			// The witness extension is never surfaced — counting
			// continues past it — so test suffices: no Extension.
			ok, err := wc.test(di, slots)
			if err != nil {
				return nil, err
			}
			res.Candidates++
			if ok {
				res.Counterexamples++
			}
			return nil, nil
		})
		visited += bud.count()
		noteDisjunct(di, bud.count(), 0, 0, false)
		if err == nil {
			continue
		}
		r := reasonOf(err)
		if r == ReasonNone {
			return nil, err
		}
		res.Exact = false
		res.Reason = r
		if err == ErrBudgetExceeded {
			// The per-disjunct valuation cap: later disjuncts still
			// contribute their own sampled prefixes.
			continue
		}
		// Cross-cutting stop (cancellation, deadline, row/tuple budget):
		// the gate is tripped for good, so further disjuncts cannot run.
		break
	}
	res.finish()
	return res, nil
}

// finish derives Verdict, Degree and the confidence interval from the
// raw counts.
func (r *DegreeResult) finish() {
	switch {
	case r.Counterexamples > 0:
		r.Verdict = VerdictIncomplete
	case r.Exact:
		r.Verdict = VerdictComplete
	default:
		r.Verdict = VerdictUnknown
	}
	if r.Candidates == 0 {
		r.Degree, r.Lo, r.Hi = 1, 1, 1
		if !r.Exact {
			// Sampling stopped before inspecting anything: no evidence
			// at all, so the interval is vacuous.
			r.Lo = 0
		}
		return
	}
	covered := r.Candidates - r.Counterexamples
	r.Degree = float64(covered) / float64(r.Candidates)
	if r.Counterexamples > 0 && r.Degree >= 1 {
		// A handful of counterexamples in an astronomically large sample
		// must not round the degree up onto the Complete anchor.
		r.Degree = math.Nextafter(1, 0)
	}
	if r.Exact {
		r.Lo, r.Hi = r.Degree, r.Degree
		return
	}
	r.Lo, r.Hi = wilson(covered, r.Candidates)
	if r.Degree < r.Lo {
		r.Lo = r.Degree
	}
	if r.Degree > r.Hi {
		r.Hi = r.Degree
	}
}

// wilson returns the Wilson score 95% confidence interval for a
// proportion of k successes in n trials.
func wilson(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // Φ⁻¹(0.975)
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	margin := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
