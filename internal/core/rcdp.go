package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// RCDPResult is the outcome of a relatively-complete-database check.
type RCDPResult struct {
	// Verdict is the three-valued outcome: VerdictComplete reports
	// D ∈ RCQ(Q, Dm, V), VerdictIncomplete comes with a witness below,
	// VerdictUnknown means governance stopped the search first.
	Verdict Verdict
	// Reason, when Verdict is Unknown, names the exhausted dimension.
	Reason Reason
	// Stats reports the resources consumed (JoinRows/Tuples are counted
	// only on governed runs). Stats.Valuations, the number of candidate
	// valuations inspected, is a work counter, not part of the verdict:
	// with more than one worker it also counts the speculative work of
	// tasks that lost the race, so only Workers=1 runs reproduce it
	// exactly.
	Stats BudgetStats
	// Extension, when incomplete, is a set Δ of tuples such that
	// D ∪ Δ is partially closed and Q(D ∪ Δ) ≠ Q(D).
	Extension *relation.Database
	// NewTuple, when incomplete, is a tuple in Q(D ∪ Δ) \ Q(D).
	NewTuple relation.Tuple
	// Disjunct, when incomplete, is the index of the query disjunct
	// that produced the counterexample.
	Disjunct int
	// Valuation, when incomplete, is the witness valuation μ of the
	// disjunct tableau's variables: Extension is μ(T_Disjunct) and
	// NewTuple is μ(u_Disjunct). The search runs on id slot arrays; this
	// binding is built for the result alone, so callers may keep or
	// mutate it.
	Valuation query.Binding
}

// Checker configures the decision procedures. The zero value uses
// pruned backtracking with no budget and one search worker per CPU
// (Workers=0); set Workers=1 to search on the calling goroutine alone.
type Checker struct {
	// Naive disables inequality pruning and fresh-value symmetry
	// breaking in the valuation search (ablation ABL-1 of DESIGN.md).
	Naive bool
	// Workers is the size of the valuation-search worker pool: 0 uses
	// runtime.GOMAXPROCS(0), 1 runs every disjunct search as one task
	// on the calling goroutine, n > 1 fans the top-level candidate
	// branches of every disjunct out to n goroutines. Verdicts and
	// witnesses are scheduling-independent (see DESIGN.md, "Parallel
	// search"): every worker count returns byte-identical
	// verdict/Extension/NewTuple/Disjunct.
	Workers int
	// Budget bounds every check this checker runs (see Budget); the
	// zero value is unlimited.
	Budget Budget
}

// effectiveWorkers resolves the Workers field to a concrete count.
func (ck *Checker) effectiveWorkers() int {
	if ck.Workers > 0 {
		return ck.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RCDPCtx decides the relatively complete database problem with the
// default checker under context/budget governance. See Checker.RCDPCtx.
func RCDPCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	return (&Checker{}).RCDPCtx(ctx, q, d, dm, v)
}

// RCDPCtx decides RCDP(L_Q, L_C) for monotone L_Q and L_C (CQ, UCQ,
// ∃FO⁺; INDs are CQ constraints): given a query Q, master data Dm, a set
// V of containment constraints and a partially closed database D, it
// reports whether D is complete for Q relative to (Dm, V).
//
// The procedure implements the characterization of Proposition 3.3 and
// Corollaries 3.4/3.5: D is incomplete iff some disjunct tableau
// (T_i, u_i) has a valid valuation μ with values in Adom such that
// μ(u_i) ∉ Q(D) and (D ∪ μ(T_i), Dm) ⊨ V; the returned witness is then
// Δ = μ(T_i). Monotonicity of the languages makes the single-disjunct
// witness exact (the Σ₂ᵖ algorithm of Theorem 3.6 guesses the same
// certificate).
//
// It is an error to call RCDPCtx with FO or FP queries or constraints
// (Theorem 3.1: undecidable) — use BoundedRCDPCtx for those — or with
// a D that is not partially closed with respect to (Dm, V).
//
// The check runs under context/budget governance: it returns a nil
// error with Verdict=VerdictUnknown (plus the Reason and the consumed
// Stats) when ctx is cancelled, the deadline expires or a budget
// dimension runs out before the search decides; genuine failures
// (undecidable language, D not partially closed, schema errors) are
// errors. For decisive budgets — far from the amount of work a verdict
// needs — the verdict and reason are identical at Workers=1 and
// Workers=N; near the boundary the parallel engine's speculative work
// can tip a run to either side (see DESIGN.md "Resource governance").
func (ck *Checker) RCDPCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	return ck.RCDPPreparedCtx(ctx, q, Prepare(d, dm, v))
}

// RCDPPreparedCtx is RCDPCtx over a prepared (D, Dm, V): checks of many
// queries over one database share the handle's setup (see Prepared),
// and only the first of them pays for the partial-closure test. Use it
// whenever more than one query is checked against the same D; a single
// check gains nothing over RCDPCtx, which builds a one-use handle.
func (ck *Checker) RCDPPreparedCtx(ctx context.Context, q qlang.Query, p *Prepared) (*RCDPResult, error) {
	co := startCheck("rcdp", ck.effectiveWorkers())
	gv := newGovernor(ctx, ck.Budget)
	defer gv.close()
	res, err := ck.rcdp(q, p, nil, gv)
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			out := &RCDPResult{Verdict: VerdictUnknown, Reason: r, Stats: gv.stats(0)}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	res.Stats = gv.stats(res.Stats.Valuations)
	co.done(res.Verdict.String(), ReasonNone, res.Stats)
	return res, nil
}

// rcdpPrep is the shared setup of a disjunct search: the (D, Dm, V)
// handle, the compiled tableaux, the per-disjunct valuation searches
// (nil entries are disjuncts unsatisfiable under domain constraints),
// the database schemas and the already-answered head set. Built once
// per check by prepareRCDP and then read-only, it is shared by every
// task of the RCDP search (rcdp) and by the degree enumeration.
type rcdpPrep struct {
	p        *Prepared
	tableaux []*cq.Tableau
	searches []*valuationSearch
	schemas  map[string]*relation.Schema
	// answers is Q(D) as head id tuples.
	answers *relation.IDTupleSet
}

// prepareRCDP performs the disjunct-independent setup of an RCDP check:
// the decidability guards, the (D, Dm, V) setup of p (the
// partial-closure precondition among it), the Q(D) answer set and one
// valuation search per disjunct tableau. A nil prep with a nil error
// means the query is unsatisfiable (trivially complete).
func (ck *Checker) prepareRCDP(q qlang.Query, p *Prepared, gate *query.Gate) (*rcdpPrep, error) {
	if !q.Lang().Monotone() {
		return nil, fmt.Errorf("core: RCDP is undecidable for L_Q = %v (Theorem 3.1); use BoundedRCDPCtx", q.Lang())
	}
	if p.v != nil && !p.v.AllMonotone() {
		return nil, fmt.Errorf("core: RCDP is undecidable for L_C = %v (Theorem 3.1); use BoundedRCDPCtx", p.v.MaxLang())
	}
	st, err := p.state(gate)
	if err != nil {
		return nil, err
	}

	tableaux := q.Tableaux()
	if len(tableaux) == 0 {
		// Unsatisfiable query: trivially complete.
		return nil, nil
	}
	answers, err := cq.AnswerIDsGate(tableaux, q.Arity(), p.d, gate)
	if err != nil {
		return nil, err
	}
	u := newUniverse(st.adom, q, tableauVarCount(tableaux))

	// The inert-position and relevant-value analyses come from the
	// handle; only Q's constants are merged in here, once per check, and
	// shared read-only across disjuncts (and workers).
	cfg := searchConfig{naive: ck.Naive, gate: gate}
	if !ck.Naive {
		cfg.v, cfg.dm = p.v, p.dm
		cfg.constrained = st.constrained
		cfg.rv = st.rv.forQuery(q)
	}
	searches := make([]*valuationSearch, len(tableaux))
	for di, t := range tableaux {
		if search, ok := newValuationSearch(u, t, st.schemas, cfg); ok {
			searches[di] = search
		} // else: disjunct unsatisfiable under domain constraints
	}
	return &rcdpPrep{p: p, tableaux: tableaux, searches: searches, schemas: st.schemas, answers: answers}, nil
}

// rcdp is RCDP with an optional externally-owned worker pool — so that
// RCQP's candidate checks and the RCDP disjunct searches they trigger
// draw goroutines from one shared pool instead of multiplying — and an
// optional governor (nil = ungoverned, zero instrumentation cost).
// Governance stops surface as the gate's errors / ErrBudgetExceeded.
//
// The disjunct searches become one flat, lexicographically ordered
// task list: a shared raceCtl arbitrates claims to the smallest
// (disjunct, branch) key and per-disjunct budget controllers keep the
// MaxValuations semantics. See DESIGN.md, "Parallel search", for the
// determinism argument.
func (ck *Checker) rcdp(q qlang.Query, p *Prepared, pool *workerPool, gv *governor) (*RCDPResult, error) {
	gate := gv.gateOf()
	prep, err := ck.prepareRCDP(q, p, gate)
	if err != nil {
		return nil, err
	}
	if prep == nil {
		return &RCDPResult{Verdict: VerdictComplete}, nil
	}
	if pool == nil {
		pool = newWorkerPool(ck.effectiveWorkers())
	}
	pool.warm(p.d, p.dm)
	ctl := newRaceCtl()
	// Every walk cuts the subtrees whose head Q(D) already answers and
	// turns every rejection by V into a nogood (nogood.go): both skip
	// only valuations that test rejects. The ablation engine enumerates
	// in full.
	nogoods := !ck.Naive
	checkers := &witnessPool{build: func() *witnessChecker { return newWitnessChecker(prep, gate, nogoods) }}
	cut := prep.answers
	if ck.Naive {
		cut = nil
	}
	budgets := make([]*budgetCtl, len(prep.tableaux))
	var tasks []func()
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		budgets[di] = newBudgetCtl(ck.Budget.MaxValuations)
		tasks = append(tasks, search.branchTasks(pool, ctl, budgets[di], di, cut, rcdpVisit(checkers, di))...)
	}
	pool.run(tasks)

	val, key, err := ctl.result()
	// Every disjunct up to the deciding one was searched; a later one
	// only if a pool task speculated into it.
	last := len(budgets) - 1
	if key != noKey {
		last = keyDisjunct(key)
	}
	total, witnessDisjunct := 0, -1
	if err == nil && val != nil {
		witnessDisjunct = val.(*RCDPResult).Disjunct
	}
	for di, bud := range budgets {
		if bud != nil && (di <= last || bud.count() > 0) {
			total += bud.count()
			noteDisjunct(di, bud.count(), bud.headCuts(), bud.nogoodJumps(), di == witnessDisjunct)
		}
	}
	if err != nil {
		return nil, err
	}
	if key == noKey {
		return &RCDPResult{Verdict: VerdictComplete, Stats: BudgetStats{Valuations: total}}, nil
	}
	if val == nil {
		// A budget-exhaustion claim won: some disjunct ran out of
		// budget and no witness with a smaller key exists.
		return nil, ErrBudgetExceeded
	}
	r := val.(*RCDPResult)
	r.Stats.Valuations = total
	return r, nil
}

// rcdpVisit is the complete-valuation callback of disjunct di's RCDP
// walks: it tests the valuation with the task's witness checker, taken
// from checkers at the task's first complete valuation, claims a
// counterexample, and turns a rejection into the walk's nogood.
func rcdpVisit(checkers *witnessPool, di int) parallelFn {
	return func(w *searchWorker, slots []int32) (any, error) {
		if w.wc == nil {
			w.wc = checkers.get()
		}
		r, err := w.wc.witness(di, slots)
		if err != nil {
			return nil, err
		}
		if r == nil {
			w.refute(w.wc.sup)
			return nil, nil
		}
		return r, nil
	}
}

// witnessChecker decides whether complete valuations are
// counterexamples to completeness: μ(u) ∉ Q(D) and (D ∪ μ(T), Dm) ⊨ V.
// An RCDP check takes its checkers from a witnessPool, one per running
// task; a degree computation builds one. A checker owns the prepared
// cc.DeltaChecker over (D, Dm), the id rows of μ(T), refilled in place
// from the slot array for every valuation, and the head-id scratch.
// Besides those it reads only the warmed, read-only shared state of
// rcdpPrep. Single-goroutine.
type witnessChecker struct {
	prep *rcdpPrep
	dc   *cc.DeltaChecker
	gate *query.Gate
	rows cq.DeltaRows
	ids  []int32
	// sup, when non-nil, receives the rows of μ(T) that the violating
	// match of a rejected valuation read, for the RCDP walk's nogood
	// (searchWorker.refute); it is empty after any other outcome.
	sup  *cq.Support
	pool *witnessPool // the pool it returns to; nil outside one
}

// newWitnessChecker builds a checker; support selects recording the
// support of every V-rejection (RCDP walks, not degree counting).
func newWitnessChecker(prep *rcdpPrep, gate *query.Gate, support bool) *witnessChecker {
	w := &witnessChecker{
		prep: prep,
		dc:   prep.p.v.NewDeltaChecker(prep.p.d, prep.p.dm),
		gate: gate,
	}
	if support {
		w.sup = &cq.Support{}
	}
	return w
}

// test reports whether the complete valuation slots of disjunct di is
// a counterexample. It charges one tuple per distinct row of μ(T).
func (w *witnessChecker) test(di int, slots []int32) (bool, error) {
	w.sup.Reset()
	s := w.prep.searches[di]
	w.ids = s.headIDs(w.ids[:0], slots)
	if w.prep.answers.Has(w.ids) {
		return false, nil // already answered; cannot change Q(D)
	}
	if err := s.tpls.Ground(&w.rows, slots); err != nil {
		return false, err
	}
	if err := w.gate.ChargeTuples(w.rows.Len()); err != nil {
		return false, err
	}
	return w.dc.SatisfiedGate(&w.rows, w.gate, w.sup)
}

// witness is test building the result for a counterexample: its
// Extension is the one relation.Database of the check, μ(T) in the
// shape of Tableau.NewFragment.
func (w *witnessChecker) witness(di int, slots []int32) (*RCDPResult, error) {
	ok, err := w.test(di, slots)
	if err != nil || !ok {
		return nil, err
	}
	s := w.prep.searches[di]
	ext, err := s.t.NewFragment(w.prep.schemas)
	if err != nil {
		return nil, err
	}
	if err := s.tpls.AddInto(ext, slots); err != nil {
		return nil, err
	}
	return &RCDPResult{
		Verdict:   VerdictIncomplete,
		Extension: ext,
		NewTuple:  s.headTuple(slots),
		Disjunct:  di,
		Valuation: s.binding(slots),
	}, nil
}

// flush charges the checker's batched join counters to obs.
func (w *witnessChecker) flush() { w.dc.Flush() }

// release flushes the checker and returns it to the pool it was taken
// from. Nil-safe for tasks that never reached a complete valuation.
func (w *witnessChecker) release() {
	if w != nil {
		w.flush()
		w.pool.put(w)
	}
}

// witnessPool holds the witness checkers of one RCDP check. A task
// takes one at its first complete valuation and releases it when the
// task ends, so a check builds one checker per concurrently running
// task: exactly one on a nil pool, where the tasks run in turn.
type witnessPool struct {
	build func() *witnessChecker
	mu    sync.Mutex
	free  []*witnessChecker
}

func (p *witnessPool) get() *witnessChecker {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	w := p.build()
	w.pool = p
	return w
}

func (p *witnessPool) put(w *witnessChecker) {
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}
