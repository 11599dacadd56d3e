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

// RCQPCtx decides the relatively complete query problem with the
// default checker under context/budget governance. See
// QPChecker.RCQPCtx.
func RCQPCtx(ctx context.Context, q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
	return (&QPChecker{}).RCQPCtx(ctx, q, dm, v, schemas)
}

// RCQPCtx decides RCQP(L_Q, L_C) for monotone L_Q: given Q, Dm and V,
// is there any database complete for Q relative to (Dm, V)?
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
//
// The check runs under context/budget governance (the budget is
// ck.Checker.Budget). A governance stop returns Status=Unknown with the
// Reason set and a nil error; the caps-exhausted Unknown of the
// certificate search keeps ReasonNone. See Checker.RCDPCtx for the
// determinism contract.
func (ck *QPChecker) RCQPCtx(ctx context.Context, q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema) (*RCQPResult, error) {
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
	var valuations int
	var err error
	switch {
	case !q.Lang().Monotone():
		err = fmt.Errorf("core: RCQP is undecidable for L_Q = %v (Theorem 4.1); use BoundedRCQPCtx", q.Lang())
	case v != nil && !v.AllMonotone():
		err = fmt.Errorf("core: RCQP is undecidable for L_C = %v (Theorem 4.1); use BoundedRCQPCtx", v.MaxLang())
	case v.AllINDs():
		res, valuations, err = cfg.rcqpINDs(q, dm, v, schemas, wp, gv)
	default:
		res, err = cfg.rcqpGeneral(q, dm, v, schemas, wp, gv)
	}
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			// A governance stop: a global one (cancel, deadline, rows,
			// tuples) or the E3/E4 search's valuation budget. The
			// certificate search's per-candidate valuation budgets never
			// surface here — they skip the candidate.
			out := &RCQPResult{Status: Unknown, Method: "budget", Reason: r, Stats: gv.stats(valuations)}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(valuations))
		return nil, err
	}
	res.Stats = gv.stats(valuations)
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
//
// It also returns the complete valuations inspected by the E3/E4
// search and the witness construction; both charge the checker's
// MaxValuations per disjunct. Exhausting it in the E3/E4 search stops
// the check with ErrBudgetExceeded; exhausting it while building the
// witness of a Yes drops the witness and keeps the Yes.
func (cfg QPChecker) rcqpINDs(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, wp *workerPool, gv *governor) (*RCQPResult, int, error) {
	gate := gv.gateOf()
	bounded, ok := v.BoundedColumns()
	if !ok {
		return nil, 0, fmt.Errorf("core: rcqpINDs called with non-IND constraints")
	}
	tableaux := q.Tableaux()
	u := NewUniverse(nil, dm, q, v, tableauVarCount(tableaux))
	budget := cfg.Checker.Budget.MaxValuations
	scfg := searchConfig{
		v: v, dm: dm,
		constrained: inertPositions(v),
		rv:          computeRelevantValues(v, nil, dm).forQuery(q),
		gate:        gate,
	}

	// Boundedness analysis per disjunct (cheap, sequential); the
	// valuation searches of the unbounded disjuncts are the expensive
	// part and are what gets fanned out below.
	type unboundedDisjunct struct {
		di     int
		name   string // the uncovered head variable
		search *valuationSearch
	}
	var pending []unboundedDisjunct
	for di, t := range tableaux {
		search, okT := newValuationSearch(u, t, schemas, scfg)
		if !okT {
			continue // unsatisfiable disjunct
		}
		occ := headVarOccurrences(t)
		unbounded := ""
		for _, h := range t.Head {
			if !h.IsVar {
				continue
			}
			if search.doms[h.Name].Kind == relation.Finite {
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
		pending = append(pending, unboundedDisjunct{di: di, name: unbounded, search: search})
	}

	noResult := func(di int, name string, witness query.Binding) *RCQPResult {
		return &RCQPResult{
			Status: No,
			Method: "E3/E4",
			Detail: fmt.Sprintf("disjunct %d: head variable %s has an infinite domain, is covered by no IND, and valuation %v satisfies V — answers can always be extended with fresh values", di, name, witness),
		}
	}

	// The branches of every unbounded disjunct race on one raceCtl: the
	// smallest (disjunct, branch) claim is the DFS-first witness, and a
	// disjunct's budget claim beats every later disjunct. On a nil pool
	// (one worker) each disjunct is one task, the tasks run in order on
	// this goroutine and a claim cancels every later one.
	wp.warm(dm)
	ctl := newRaceCtl()
	names := make(map[int]string, len(pending))
	budgets := make([]*budgetCtl, len(pending))
	var tasks []func()
	for k, ud := range pending {
		ud := ud
		names[ud.di] = ud.name
		budgets[k] = newBudgetCtl(budget)
		fn := func(w *searchWorker, slots []int32) (any, error) {
			sat, err := satisfiesV(ud.search, &w.frag, slots, schemas, v, dm, gate)
			if err != nil || !sat {
				return nil, err // a governance error stops the whole race
			}
			return ud.search.binding(slots), nil
		}
		tasks = append(tasks, ud.search.branchTasks(wp, ctl, budgets[k], ud.di, nil, fn)...)
	}
	wp.run(tasks)
	valuations := 0
	for _, bud := range budgets {
		valuations += bud.inspected()
	}
	val, key, err := ctl.result()
	if err != nil {
		return nil, valuations, err
	}
	if key != noKey {
		if val == nil {
			return nil, valuations, ErrBudgetExceeded
		}
		di := keyDisjunct(key)
		return noResult(di, names[di], val.(query.Binding)), valuations, nil
	}
	// The verdict is decided; the witness is a by-product. A governance
	// stop during its construction drops the witness, not the Yes.
	res := &RCQPResult{Status: Yes, Method: "E3/E4"}
	w, n, err := completeDatabaseINDs(q, dm, v, schemas, cfg.MaxCandidates, budget, gate)
	valuations += n
	if err == nil && w != nil {
		res.Witness = w
	}
	return res, valuations, nil
}

// satisfiesV reports whether μ(T) of the complete valuation slots
// satisfies V on its own (with Dm), refilling *frag in place. A
// valuation whose fragment cannot be built — a template over a relation
// missing from schemas, a value outside a finite domain — does not
// satisfy; only governance stops surface as errors.
func satisfiesV(s *valuationSearch, frag **relation.Database, slots []int32, schemas map[string]*relation.Schema,
	v *cc.Set, dm *relation.Database, gate *query.Gate) (bool, error) {
	if *frag == nil {
		f, err := s.t.NewFragment(schemas)
		if err != nil {
			return false, nil
		}
		*frag = f
	}
	if err := s.tpls.ApplyInto(*frag, slots); err != nil {
		return false, nil
	}
	sat, err := v.SatisfiedGate(*frag, dm, gate)
	if err != nil {
		if isGovernErr(err) {
			return false, err
		}
		return false, nil
	}
	return sat, nil
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
// the caps.
func (cfg QPChecker) searchWitness(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, wp *workerPool, gv *governor) (*relation.Database, int, error) {
	pool, base, err := cfg.buildFragmentPool(q, dm, v, schemas, gv)
	if err != nil {
		return nil, 0, err
	}
	// confirm reports whether cand is a witness: partially closed and
	// complete by RCDP. The RCDP setup tests partial closure, so a
	// candidate that fails it is no witness; so is one whose RCDP check
	// runs out of its valuation budget. Global governance stops
	// propagate.
	confirm := func(cand *relation.Database) (bool, error) {
		r, err := cfg.Checker.rcdp(q, Prepare(cand, dm, v), wp, gv)
		if err == errNotPartiallyClosed || err == ErrBudgetExceeded {
			return false, nil
		}
		return err == nil && r.Verdict == VerdictComplete, err
	}

	// Size 0: the base candidate (constant templates only).
	tried := 1
	first := base.Clone()
	if ok, err := confirm(first); err != nil {
		return nil, tried, err
	} else if ok {
		return first, tried, nil
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
			r, err := cfg.Checker.rcdp(q, Prepare(cur, dm, v), wp, gv)
			if err != nil {
				if isGovernErr(err) && err != ErrBudgetExceeded {
					return nil, tried, err
				}
				break
			}
			if r.Verdict == VerdictComplete {
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
	// Iterative deepening over fragment combinations. Candidates are
	// generated on this goroutine in pre-order, tagged with their
	// enumeration index, and checked in chunks of keyed tasks; within a
	// chunk a raceCtl resolves to the smallest index that confirms, so
	// the witness and the reported count ("everything up to and
	// including the winner") are the pre-order-first ones whatever the
	// pool.
	limit := cfg.MaxCandidates - tried
	if limit <= 0 {
		return nil, tried, nil
	}
	wp.warm(dm)
	chunkSize := 4 * cfg.Checker.effectiveWorkers()
	var (
		winner    *relation.Database
		winnerIdx = -1
		chunk     []*relation.Database
		idx       int // enumeration index of the next candidate
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
				if ok, err := confirm(cand); err != nil {
					ctl.fail(err)
				} else if ok {
					ctl.claim(key, cand)
				}
			}
		}
		wp.run(tasks)
		chunk = chunk[:0]
		val, key, err := ctl.result()
		if val != nil {
			winner, winnerIdx = val.(*relation.Database), int(key)
		}
		return err
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
			return nil, tried + idx, err
		}
	}
	if err := flush(); err != nil {
		return nil, tried + idx, err
	}
	if winner != nil {
		return winner, tried + winnerIdx + 1, nil
	}
	return nil, tried + idx, nil
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
	// The exact search reductions (IND pruning, inert-variable
	// collapsing and relevant-value restriction) keep the pool focused
	// on fragments that can participate in a partially closed witness.
	scfg := searchConfig{
		v: v, dm: dm,
		constrained: inertPositions(v),
		rv:          computeRelevantValues(v, nil, dm).forQuery(q),
		gate:        gv.gateOf(),
	}

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

	// addFragment reports whether the pool has room for more.
	addFragment := func(db *relation.Database) bool {
		if len(pool) < cfg.MaxPool && !db.IsEmpty() {
			pool = append(pool, db)
		}
		return len(pool) < cfg.MaxPool
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
			if err := enumerateInstantiations(u, sub, schemas, scfg, addFragment); err != nil {
				return nil, nil, err
			}
		}
	}
	// Full valuations of the query tableaux (the D⁺ shape).
	for _, t := range qTabs {
		if len(pool) >= cfg.MaxPool {
			break
		}
		if err := enumerateInstantiations(u, t, schemas, scfg, addFragment); err != nil {
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
// over Adom under the search configuration and emits each
// instantiation μ(T) as a database fragment, until emit reports that
// it wants no more.
func enumerateInstantiations(u *Universe, t *cq.Tableau, schemas map[string]*relation.Schema, cfg searchConfig, emit func(*relation.Database) bool) error {
	if t == nil {
		return nil
	}
	search, ok := newValuationSearch(u, t, schemas, cfg)
	if !ok {
		return nil
	}
	_, _, err := search.inOrder(0, func(_ *searchWorker, slots []int32) (any, error) {
		db, err := t.NewFragment(schemas)
		if err != nil {
			return nil, nil
		}
		if err := search.tpls.AddInto(db, slots); err != nil {
			return nil, nil
		}
		if !emit(db) {
			return true, nil // claim: emit is done, end the walk
		}
		return nil, nil
	})
	return err
}
