package core

import (
	"context"
	"fmt"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// Status is a three-valued verdict for the relatively complete query
// problem. Exact decision paths (INDs, empty V, E1) return Yes or No;
// the certificate search for general CQ-class constraints returns Yes
// with a verified witness or Unknown when its search caps are hit
// before the certificate space is exhausted (the problem is
// NEXPTIME-complete — Theorem 4.5 — so caps are unavoidable).
type Status int

// Verdicts.
const (
	No Status = iota
	Yes
	Unknown
)

func (s Status) String() string {
	switch s {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// RCQPResult is the outcome of a relatively-complete-query check.
type RCQPResult struct {
	// Status reports whether RCQ(Q, Dm, V) is nonempty.
	Status Status
	// Witness, when Status == Yes and one was constructed, is a
	// database verified (via RCDP) to be complete for Q relative to
	// (Dm, V).
	Witness *relation.Database
	// Method names the decision path taken (e.g. "E1", "E3/E4",
	// "blocked", "certificate-search").
	Method string
	// Detail is a human-readable explanation, including the unbounded
	// variable or the unblockable valuation on a No answer.
	Detail string
	// Candidates is the number of candidate witness databases examined
	// by the certificate search.
	Candidates int
	// Reason, when Status is Unknown because governance stopped the
	// check (RCQPCtx only), names the exhausted dimension; ReasonNone
	// for the pre-existing caps-exhausted Unknown.
	Reason Reason
	// Stats reports the resources consumed (Ctx entry points only).
	Stats BudgetStats
}

// QPChecker configures the RCQP certificate search.
type QPChecker struct {
	// MaxSetSize bounds the number of pool fragments combined into one
	// candidate witness (default 2).
	MaxSetSize int
	// MaxPool bounds the fragment pool size (default 4096).
	MaxPool int
	// MaxCandidates bounds the total candidates tried (default 65536).
	MaxCandidates int
	// Checker configures the inner RCDP confirmations.
	Checker Checker
}

func (ck *QPChecker) withDefaults() QPChecker {
	out := *ck
	if out.MaxSetSize == 0 {
		out.MaxSetSize = 2
	}
	if out.MaxPool == 0 {
		out.MaxPool = 4096
	}
	if out.MaxCandidates == 0 {
		out.MaxCandidates = 65536
	}
	return out
}

// RCQP decides the relatively complete query problem with the default
// checker.
func RCQP(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
	return (&QPChecker{}).RCQP(q, dm, v, schemas)
}

// RCQPCtx decides the relatively complete query problem with the
// default checker under context/budget governance. See
// QPChecker.RCQPCtx.
func RCQPCtx(ctx context.Context, q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
	return (&QPChecker{}).RCQPCtx(ctx, q, dm, v, schemas)
}

// RCQP decides RCQP(L_Q, L_C) for monotone L_Q: given Q, Dm and V, is
// there any database complete for Q relative to (Dm, V)?
//
// When V consists of INDs the syntactic characterization of Proposition
// 4.3 (conditions E3/E4) decides the problem exactly. For CQ-class
// constraint sets the procedure implements the bounded-query
// characterization of Proposition 4.2 (conditions E1/E2) as a
// certificate search: candidate witness databases are assembled from
// partial valuations of the constraint tableaux and valuations of the
// query tableaux (the D⁻/D⁺ shapes of Example 4.1), and every candidate
// is confirmed with an RCDP check, so a Yes always carries a verified
// witness. schemas must cover every relation of the database schema R
// that Q or V mentions.
func (ck *QPChecker) RCQP(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
	res, err := ck.RCQPCtx(context.Background(), q, dm, v, schemas)
	if err != nil {
		return nil, err
	}
	if res.Status == Unknown && res.Reason != ReasonNone {
		return nil, res.Reason.Err()
	}
	return res, nil
}

// RCQPCtx is RCQP under context/budget governance (the budget is
// ck.Checker.Budget). A governance stop returns Status=Unknown with the
// Reason set and a nil error; the pre-existing caps-exhausted Unknown
// keeps ReasonNone. See Checker.RCDPCtx for the determinism contract.
func (ck *QPChecker) RCQPCtx(ctx context.Context, q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
	if !q.Lang().Monotone() {
		return nil, fmt.Errorf("core: RCQP is undecidable for L_Q = %v (Theorem 4.1); use BoundedRCQP", q.Lang())
	}
	if v != nil && !v.AllMonotone() {
		return nil, fmt.Errorf("core: RCQP is undecidable for L_C = %v (Theorem 4.1); use BoundedRCQP", v.MaxLang())
	}
	cfg := ck.withDefaults()
	co := startCheck("rcqp", cfg.Checker.effectiveWorkers())
	gv := newGovernor(ctx, cfg.Checker.Budget)
	defer gv.close()
	// One pool shared by every parallel search this call triggers: the
	// E3/E4 disjunct searches, the certificate search's candidate
	// checks, and the RCDP confirmations nested inside them (nil when
	// the checker resolves to a single worker).
	wp := newWorkerPool(cfg.Checker.effectiveWorkers())
	var res *RCQPResult
	var err error
	if v.AllINDs() {
		res, err = cfg.rcqpINDs(q, dm, v, schemas, wp, gv)
	} else {
		res, err = cfg.rcqpGeneral(q, dm, v, schemas, wp, gv)
	}
	if err != nil {
		if r := reasonOf(err); r != ReasonNone && r != ReasonValuations {
			// A global governance stop (cancel, deadline, rows, tuples).
			// Per-candidate valuation budgets never surface here — they
			// skip the candidate inside the certificate search.
			out := &RCQPResult{Status: Unknown, Method: "budget", Reason: r, Stats: gv.stats(0)}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	res.Stats = gv.stats(0)
	co.done(res.Status.String(), ReasonNone, res.Stats)
	return res, nil
}

// headVarPositions returns, for each head variable of the tableau, the
// (relation, column) positions at which it occurs in the templates.
type varPosition struct {
	Rel string
	Col int
}

func headVarOccurrences(t *cq.Tableau) map[string][]varPosition {
	out := make(map[string][]varPosition)
	headVars := make(map[string]bool)
	for _, h := range t.Head {
		if h.IsVar {
			headVars[h.Name] = true
		}
	}
	for _, tpl := range t.Templates {
		for col, arg := range tpl.Args {
			if arg.IsVar && headVars[arg.Name] {
				out[arg.Name] = append(out[arg.Name], varPosition{Rel: tpl.Rel, Col: col})
			}
		}
	}
	return out
}

// rcqpINDs implements Proposition 4.3 (extended per-disjunct to UCQ and
// ∃FO⁺ as in the proof of Theorem 4.5(1)): RCQ(Q, Dm, V) is nonempty
// iff every disjunct either (a) is bounded — each head variable with an
// infinite domain occurs in a column covered by an IND of V (E4) or has
// a finite domain (E3) — or (b) admits no valid valuation μ with
// (μ(T_i), Dm) ⊨ V at all. INDs check tuple-by-tuple, which makes the
// per-disjunct analysis exact.
func (cfg QPChecker) rcqpINDs(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, wp *workerPool, gv *governor) (*RCQPResult, error) {
	gate := gv.gateOf()
	bounded, ok := v.BoundedColumns()
	if !ok {
		return nil, fmt.Errorf("core: rcqpINDs called with non-IND constraints")
	}
	tableaux := q.Tableaux()
	u := NewUniverse(nil, dm, q, v, tableauVarCount(tableaux))

	// Boundedness analysis per disjunct (cheap, sequential); the
	// valuation searches of the unbounded disjuncts are the expensive
	// part and are what gets fanned out below.
	type unboundedDisjunct struct {
		di     int
		name   string // the uncovered head variable
		t      *cq.Tableau
		search *valuationSearch
	}
	var pending []unboundedDisjunct
	for di, t := range tableaux {
		search, okT := newValuationSearch(u, t, schemas)
		if !okT {
			continue // unsatisfiable disjunct
		}
		search.pruner = newINDPruner(t, v, dm)
		search.applyCollapse(v)
		search.applyRelevant(q, v, nil, dm)
		search.gate = gate
		doms := search.doms
		occ := headVarOccurrences(t)
		unbounded := ""
		for _, h := range t.Head {
			if !h.IsVar {
				continue
			}
			if doms[h.Name].Kind == relation.Finite {
				continue // E3
			}
			covered := false
			for _, p := range occ[h.Name] {
				if bounded[p.Rel][p.Col] {
					covered = true // E4
					break
				}
			}
			if !covered {
				unbounded = h.Name
				break
			}
		}
		if unbounded == "" {
			continue // disjunct bounded
		}
		// Unbounded disjunct: RCQ is nonempty only if no valid valuation
		// satisfies V. (A disjunct with no valid valuation at all can
		// never produce an answer in a partially closed database.)
		pending = append(pending, unboundedDisjunct{di: di, name: unbounded, t: t, search: search})
	}

	noResult := func(di int, name string, witness query.Binding) *RCQPResult {
		return &RCQPResult{
			Status: No,
			Method: "E3/E4",
			Detail: fmt.Sprintf("disjunct %d: head variable %s has an infinite domain, is covered by no IND, and valuation %v satisfies V — answers can always be extended with fresh values", di, name, witness),
		}
	}

	if wp != nil && len(pending) > 0 {
		// Parallel path: the branches of every unbounded disjunct race on
		// one raceCtl; the smallest (disjunct, branch) claim is exactly
		// the witness the sequential loop above would have found first.
		warmShared(dm)
		ctl := newRaceCtl()
		names := make(map[int]string, len(pending))
		var tasks []func()
		for _, ud := range pending {
			ud := ud
			names[ud.di] = ud.name
			fn := func(b query.Binding) (any, error) {
				delta, err := ud.t.Apply(b, schemas)
				if err != nil {
					return nil, nil // mirror sequential: skip, keep searching
				}
				sat, err := v.SatisfiedGate(delta, dm, gate)
				if err != nil {
					if isGovernErr(err) {
						return nil, err // stop the whole race
					}
					return nil, nil
				}
				if !sat {
					return nil, nil
				}
				// The binding is worker-owned and unwound after return:
				// clone before claiming.
				return b.Clone(), nil
			}
			tasks = append(tasks, ud.search.branchTasks(ctl, newBudgetCtl(0), ud.di, fn)...)
		}
		wp.run(tasks)
		val, key, err := ctl.result()
		if err != nil {
			return nil, err
		}
		if key != noKey {
			di := keyDisjunct(key)
			return noResult(di, names[di], val.(query.Binding)), nil
		}
	} else {
		for _, ud := range pending {
			var witness query.Binding
			var gerr error
			err := ud.search.run(func(b query.Binding) bool {
				delta, err := ud.t.Apply(b, schemas)
				if err != nil {
					return true
				}
				sat, err := v.SatisfiedGate(delta, dm, gate)
				if err != nil {
					if isGovernErr(err) {
						gerr = err
						return false
					}
					return true
				}
				if !sat {
					return true
				}
				witness = b.Clone()
				return false
			})
			if gerr != nil {
				return nil, gerr
			}
			if err != nil {
				return nil, err
			}
			if witness != nil {
				return noResult(ud.di, ud.name, witness), nil
			}
		}
	}
	// The verdict is decided; the witness is a by-product. A governance
	// stop during its construction drops the witness, not the Yes.
	res := &RCQPResult{Status: Yes, Method: "E3/E4"}
	if w, err := completeDatabaseINDs(q, dm, v, schemas, cfg.MaxCandidates, gate); err == nil && w != nil {
		res.Witness = w
	}
	return res, nil
}

// rcqpGeneral implements the Proposition 4.2 path for CQ-class
// constraint sets. It first applies the exact shortcuts (E1; empty V),
// then runs the certificate search of E2: candidate witness databases
// are unions of up to MaxSetSize fragments, each fragment being either
// a partial valuation of a constraint tableau (the D⁻ shape) or a full
// valuation of a query tableau (the D⁺ shape), plus the constant
// templates of T_Q; each candidate is confirmed by RCDP.
func (cfg QPChecker) rcqpGeneral(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, wp *workerPool, gv *governor) (*RCQPResult, error) {
	tableaux := q.Tableaux()
	if len(tableaux) == 0 {
		// Unsatisfiable query: every partially closed database is
		// complete; the empty database is a witness if it satisfies V.
		empty := emptyDatabase(schemas)
		if ok, err := v.SatisfiedGate(empty, dm, gv.gateOf()); err != nil {
			return nil, err
		} else if ok {
			return &RCQPResult{Status: Yes, Witness: empty, Method: "unsatisfiable-query"}, nil
		}
		return &RCQPResult{Status: Yes, Method: "unsatisfiable-query"}, nil
	}

	// E1/E5: every head variable of every disjunct has a finite domain.
	allFinite := true
	for _, t := range tableaux {
		doms, ok := t.AsCQ().VarDomains(schemas)
		if !ok {
			continue
		}
		for _, h := range t.Head {
			if h.IsVar && doms[h.Name].Kind != relation.Finite {
				allFinite = false
				break
			}
		}
		if !allFinite {
			break
		}
	}
	if allFinite {
		res := &RCQPResult{Status: Yes, Method: "E1", Detail: "all output variables range over finite domains"}
		if w, n, err := cfg.searchWitness(q, dm, v, schemas, wp, gv); err != nil {
			if isGovernErr(err) {
				return nil, err // the Yes is exact, but governance asked to stop
			}
		} else if w != nil {
			res.Witness = w
			res.Candidates = n
		}
		return res, nil
	}

	// Certificate search.
	w, n, err := cfg.searchWitness(q, dm, v, schemas, wp, gv)
	if err != nil {
		return nil, err
	}
	if w != nil {
		return &RCQPResult{Status: Yes, Witness: w, Method: "certificate-search", Candidates: n}, nil
	}
	if v.Len() == 0 {
		// Proposition 4.2, case V = ∅: RCQ is nonempty iff E1 holds.
		return &RCQPResult{
			Status: No, Method: "E1", Candidates: n,
			Detail: "V is empty and some output variable has an infinite domain: any database can be extended with a fresh answer",
		}, nil
	}
	return &RCQPResult{
		Status: Unknown, Method: "certificate-search", Candidates: n,
		Detail: fmt.Sprintf("no witness within caps (set size ≤ %d, pool ≤ %d, candidates ≤ %d)", cfg.MaxSetSize, cfg.MaxPool, cfg.MaxCandidates),
	}, nil
}

// emptyDatabase builds an empty database over the schema map.
func emptyDatabase(schemas map[string]*relation.Schema) *relation.Database {
	var ss []*relation.Schema
	for _, s := range schemas {
		ss = append(ss, s)
	}
	return relation.NewDatabase(ss...)
}

// searchWitness enumerates candidate witness databases and returns the
// first one confirmed complete by RCDP, with the number of candidates
// tried. A nil result with nil error means no witness was found within
// the caps. With a non-nil worker pool the iterative-deepening stage
// checks candidates in parallel chunks; the winner (and the reported
// candidate count) is the pre-order-first witness either way.
func (cfg QPChecker) searchWitness(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, wp *workerPool, gv *governor) (*relation.Database, int, error) {
	pool, base, err := cfg.buildFragmentPool(q, dm, v, schemas, gv)
	if err != nil {
		return nil, 0, err
	}
	tried := 0
	check := func(cand *relation.Database) (*relation.Database, error) {
		tried++
		if ok, err := v.SatisfiedGate(cand, dm, gv.gateOf()); err != nil || !ok {
			return nil, err
		}
		r, err := cfg.Checker.rcdp(q, cand, dm, v, wp, gv)
		if err != nil {
			// Per-candidate valuation-budget errors just skip the
			// candidate; global governance stops propagate.
			if err == ErrBudgetExceeded {
				return nil, nil
			}
			return nil, err
		}
		if r.Complete {
			return cand, nil
		}
		return nil, nil
	}

	// Size 0: the base candidate (constant templates only).
	if w, err := check(base.Clone()); err != nil || w != nil {
		return w, tried, err
	}
	// Constructive strategy: grow the base candidate by repeatedly
	// adding the RCDP counterexample (the Proposition 4.2 construction
	// realized as a fixpoint). When the query's answer space is bounded
	// by (Dm, V) this terminates with a verified witness; a
	// counterexample whose *answer* carries a value outside the
	// problem's constants signals an unbounded answer direction that no
	// amount of growing can close, so the strategy aborts early and the
	// fragment search takes over (it can still find blocking witnesses
	// like D⁻ of Example 4.1). The rounds are inherently sequential
	// (each extends the previous counterexample), but the inner RCDP
	// calls fan their disjunct searches out on the shared pool.
	if ok, err := v.SatisfiedGate(base, dm, gv.gateOf()); err == nil && ok {
		known := make(map[relation.Value]bool)
		for _, val := range NewUniverse(base, dm, q, v, 0).Consts {
			known[val] = true
		}
		cur := base.Clone()
		for round := 0; round < 64; round++ {
			tried++
			r, err := cfg.Checker.rcdp(q, cur, dm, v, wp, gv)
			if err != nil {
				if isGovernErr(err) && err != ErrBudgetExceeded {
					return nil, tried, err
				}
				break
			}
			if r.Complete {
				return cur, tried, nil
			}
			diverges := false
			for _, val := range r.NewTuple {
				if !known[val] {
					diverges = true
					break
				}
			}
			if diverges {
				break
			}
			cur.UnionInto(r.Extension)
		}
	}
	if wp != nil {
		w, n, err := cfg.deepenParallel(wp, q, dm, v, schemas, pool, base, tried, gv)
		return w, n, err
	}
	// Iterative deepening over fragment combinations.
	var rec func(start int, acc *relation.Database, depth int) (*relation.Database, error)
	rec = func(start int, acc *relation.Database, depth int) (*relation.Database, error) {
		if depth == 0 {
			return nil, nil
		}
		for i := start; i < len(pool); i++ {
			if tried >= cfg.MaxCandidates {
				return nil, nil
			}
			cand := acc.Union(pool[i])
			if w, err := check(cand); err != nil || w != nil {
				return w, err
			}
			if w, err := rec(i+1, cand, depth-1); err != nil || w != nil {
				return w, err
			}
		}
		return nil, nil
	}
	for depth := 1; depth <= cfg.MaxSetSize; depth++ {
		w, err := rec(0, base, depth)
		if err != nil || w != nil {
			return w, tried, err
		}
		if tried >= cfg.MaxCandidates {
			break
		}
	}
	return nil, tried, nil
}

// deepenParallel is the iterative-deepening stage of searchWitness on a
// worker pool. Candidates are generated on the coordinating goroutine
// in exactly the sequential pre-order, tagged with their enumeration
// index, and checked in chunks; within a chunk a raceCtl resolves to
// the smallest index that confirms, so the returned witness — and the
// reported candidate count, which replays the sequential accounting
// "everything up to and including the winner" — match Workers=1.
func (cfg QPChecker) deepenParallel(wp *workerPool, q qlang.Query, dm *relation.Database, v *cc.Set,
	schemas map[string]*relation.Schema, pool []*relation.Database, base *relation.Database, pretried int,
	gv *governor) (*relation.Database, int, error) {
	limit := cfg.MaxCandidates - pretried // checks the sequential engine would still allow
	if limit <= 0 {
		return nil, pretried, nil
	}
	warmShared(dm)
	chunkSize := cfg.Checker.effectiveWorkers() * 4
	if chunkSize < 4 {
		chunkSize = 4
	}
	var (
		winner    *relation.Database
		winnerIdx = -1
		chunk     []*relation.Database
		idx       int // global enumeration index of the next candidate
	)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		ctl := newRaceCtl()
		baseIdx := idx - len(chunk)
		tasks := make([]func(), len(chunk))
		for i, cand := range chunk {
			i, cand := i, cand
			tasks[i] = func() {
				key := int64(baseIdx + i)
				if ctl.cancelled(key) {
					return
				}
				ok, err := v.SatisfiedGate(cand, dm, gv.gateOf())
				if err != nil {
					ctl.fail(err)
					return
				}
				if !ok {
					return
				}
				r, err := cfg.Checker.rcdp(q, cand, dm, v, wp, gv)
				if err != nil {
					if err != ErrBudgetExceeded { // valuation budget skips the candidate
						ctl.fail(err)
					}
					return
				}
				if r.Complete {
					ctl.claim(key, cand)
				}
			}
		}
		wp.run(tasks)
		chunk = chunk[:0]
		val, key, err := ctl.result()
		if err != nil {
			return err
		}
		if val != nil {
			winner = val.(*relation.Database)
			winnerIdx = int(key)
		}
		return nil
	}
	var gen func(start int, acc *relation.Database, depth int) error
	gen = func(start int, acc *relation.Database, depth int) error {
		if depth == 0 {
			return nil
		}
		for i := start; i < len(pool); i++ {
			if idx >= limit {
				return errStop
			}
			cand := acc.Union(pool[i])
			chunk = append(chunk, cand)
			idx++
			if len(chunk) >= chunkSize {
				if err := flush(); err != nil {
					return err
				}
				if winner != nil {
					return errStop
				}
			}
			if err := gen(i+1, cand, depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	for depth := 1; depth <= cfg.MaxSetSize; depth++ {
		if err := gen(0, base, depth); err == errStop {
			break
		} else if err != nil {
			return nil, pretried + idx, err
		}
	}
	if err := flush(); err != nil {
		return nil, pretried + idx, err
	}
	if winner != nil {
		return winner, pretried + winnerIdx + 1, nil
	}
	return nil, pretried + idx, nil
}

// buildFragmentPool assembles the candidate fragments: instantiations
// of nonempty template subsets of every constraint tableau (partial
// valuations of V) and full valuations of every query disjunct tableau,
// all over Adom. base holds the constant templates of T_Q (tuple
// templates without variables), which the Proposition 4.2 construction
// always includes.
func (cfg QPChecker) buildFragmentPool(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, gv *governor) (pool []*relation.Database, base *relation.Database, err error) {
	qTabs := q.Tableaux()
	var vTabs []*cq.Tableau
	if v != nil {
		for _, c := range v.Constraints {
			vTabs = append(vTabs, c.Q.Tableaux()...)
		}
	}
	nFresh := tableauVarCount(qTabs)
	if n := tableauVarCount(vTabs); n > nFresh {
		nFresh = n
	}
	u := NewUniverse(nil, dm, q, v, nFresh)

	base = emptyDatabase(schemas)
	for _, t := range qTabs {
		for _, tpl := range t.Templates {
			if tup, ok := tpl.Ground(query.Binding{}); ok {
				if err := base.Add(tpl.Rel, tup); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	addFragment := func(db *relation.Database) {
		if len(pool) < cfg.MaxPool && !db.IsEmpty() {
			pool = append(pool, db)
		}
	}

	// Partial valuations of V: every nonempty subset of each constraint
	// tableau's templates, instantiated over Adom.
	for _, t := range vTabs {
		n := len(t.Templates)
		if n == 0 || n > 16 {
			continue
		}
		for mask := 1; mask < (1 << n); mask++ {
			sub := subsetTableau(t, mask)
			if len(pool) >= cfg.MaxPool {
				break
			}
			if err := enumerateInstantiations(u, q, v, dm, sub, schemas, gv, addFragment); err != nil {
				return nil, nil, err
			}
		}
	}
	// Full valuations of the query tableaux (the D⁺ shape).
	for _, t := range qTabs {
		if len(pool) >= cfg.MaxPool {
			break
		}
		if err := enumerateInstantiations(u, q, v, dm, t, schemas, gv, addFragment); err != nil {
			return nil, nil, err
		}
	}
	return pool, base, nil
}

// subsetTableau builds a tableau containing the templates of t selected
// by the bit mask; inequalities are restricted to those whose variables
// all occur in the selected templates.
func subsetTableau(t *cq.Tableau, mask int) *cq.Tableau {
	var atoms []query.RelAtom
	kept := make(map[string]bool)
	for i, tpl := range t.Templates {
		if mask&(1<<i) != 0 {
			atoms = append(atoms, tpl)
			for _, a := range tpl.Args {
				if a.IsVar {
					kept[a.Name] = true
				}
			}
		}
	}
	var conds []query.EqAtom
	for _, d := range t.Diseqs {
		okL := !d.L.IsVar || kept[d.L.Name]
		okR := !d.R.IsVar || kept[d.R.Name]
		if okL && okR {
			conds = append(conds, d)
		}
	}
	sub, err := cq.BuildTableau(cq.New(t.Query.Name+"~sub", nil, atoms, conds...))
	if err != nil {
		return nil
	}
	return sub
}

// enumerateInstantiations enumerates valid valuations of the tableau
// over Adom and emits each instantiation μ(T) as a database fragment.
// The exact search reductions (IND pruning, inert-variable collapsing
// and relevant-value restriction) keep the pool focused on fragments
// that can participate in a partially closed witness.
func enumerateInstantiations(u *Universe, q qlang.Query, v *cc.Set, dm *relation.Database, t *cq.Tableau, schemas map[string]*relation.Schema, gv *governor, emit func(*relation.Database)) error {
	if t == nil {
		return nil
	}
	search, ok := newValuationSearch(u, t, schemas)
	if !ok {
		return nil
	}
	search.pruner = newINDPruner(t, v, dm)
	search.applyCollapse(v)
	search.applyRelevant(q, v, nil, dm)
	search.gate = gv.gateOf()
	return search.run(func(b query.Binding) bool {
		db, err := t.Apply(b, schemas)
		if err != nil {
			return true
		}
		emit(db)
		return true
	})
}
