package core

import (
	"errors"
	"slices"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// ErrBudgetExceeded stops a search that visits more candidate
// valuations than the configured cap; the entry points report it as an
// Unknown result with ReasonValuations.
var ErrBudgetExceeded = errors.New("core: valuation budget exceeded")

// errStop signals early termination of a search from a callback.
var errStop = errors.New("core: stop")

// unassigned marks a slot the search has not bound.
const unassigned int32 = -1

// valuationSearch enumerates valid valuations μ of a tableau with
// values in Adom, per the definition in Section 3.2: every variable y
// draws from adom(y), and μ must observe the tableau's inequality
// conditions (that is, Q(μ(T_Q)) is nonempty).
//
// Variables are assigned in template-major order (the variables of
// template 1 first, and so on) so that tuple templates become ground as
// early as possible; an optional IND pruner then rejects partial
// valuations whose ground templates already violate an inclusion
// dependency of V — the backtracking realization of the Σ₂ᵖ
// certificate guess of Theorem 3.6.
//
// The search runs on interned ids. Each variable gets a dense slot in
// that order, and everything the recursion reads is compiled against
// the slots once, in newValuationSearch: per-slot candidate id lists,
// the inequality conditions (each tested at the slot that completes
// it), the IND pruner, the head and the templates. A valuation is an
// []int32 slot array of shared-dictionary ids; a query.Binding is built
// only where a valuation leaves the package (binding).
//
// Sharing discipline: after newValuationSearch everything here is
// read-only and may be shared across the tasks of a keyed-task search
// (see parallel.go), the one driver every walk over the search goes
// through; the per-task state is a searchWorker, and the valuation
// budget is the search's budgetCtl.
type valuationSearch struct {
	u     *Universe
	t     *cq.Tableau
	doms  map[string]relation.Domain
	order []string // slot → variable

	// cands holds each slot's candidate values.
	cands []slotCandidates

	// diseqsAt[i] holds the inequality conditions completed by slot i
	// (its last variable in slot order); diseqs holds all of them, for
	// naive mode, which tests them on complete valuations only.
	diseqsAt [][]slotDiseq
	diseqs   []slotDiseq

	// pruner, when non-nil, rejects partial valuations violating INDs.
	// Pruning is an optimization only: callers re-check the full
	// constraint set on complete valuations (or rely on the pruner
	// being exact for all-IND V, see completeDatabaseINDs), and naive
	// mode disables it.
	pruner *indPruner

	// head holds the output summary u's operands; tpls grounds the
	// templates from a slot array. headAt is the last slot the head
	// reads, where a walk given Q(D) cuts answered heads (see
	// searchWorker.answers); −1 when the head has no variables.
	head   []int32
	headAt int
	tpls   *cq.SlotTemplates

	// naive disables inequality pruning, IND pruning, inert-variable
	// collapsing, relevant-value restriction and fresh-value symmetry
	// breaking; kept for the ablation benchmarks.
	naive bool

	// gate, when non-nil, is the check's governance gate: every search
	// node polls it so cancellation and cross-cutting budgets (rows,
	// tuples) stop the search promptly. Shared (atomics only) by every
	// walk over the search.
	gate *query.Gate
}

// slotCandidates are the values one slot tries, in order: base, then —
// when fresh is set — a prefix of the universe's fresh pool. With
// symmetry breaking the prefix holds the fresh values already used plus
// the first unused one; naive mode tries the whole pool.
type slotCandidates struct {
	base  []int32
	fresh bool
}

// slotDiseq is one inequality condition over operands: a slot index
// when ≥ 0, the complement ^id of a constant's id when < 0.
type slotDiseq struct {
	l, r int32
	neg  bool
}

// operandID resolves an operand against a slot array.
func operandID(op int32, slots []int32) int32 {
	if op >= 0 {
		return slots[op]
	}
	return ^op
}

func (d slotDiseq) holds(slots []int32) bool {
	return (operandID(d.l, slots) == operandID(d.r, slots)) != d.neg
}

// searchConfig selects the search reductions of newValuationSearch.
// The zero value is the plain search over all of Adom.
type searchConfig struct {
	// naive selects the ablation engine (see valuationSearch.naive);
	// it overrides every reduction below.
	naive bool
	// v and dm, when v is non-nil, build the IND pruner.
	v  *cc.Set
	dm *relation.Database
	// constrained, when non-nil, is the inert-position analysis of V:
	// collapsible variables are pinned to dedicated fresh values (see
	// inert.go).
	constrained map[string]map[int]bool
	// rv, when non-nil, restricts infinite-domain variables to their
	// relevant values (see relevant.go).
	rv *relevantValues
	// fixed, when non-nil, replaces the candidates of the variables it
	// names with the given lists, tried in order, with no fresh pool.
	fixed map[string][]relation.Value
	gate  *query.Gate
}

// newValuationSearch prepares a search over the tableau's variables.
// Schema information is needed to determine each variable's admissible
// domain; unsatisfiable tableaux yield ok=false.
func newValuationSearch(u *Universe, t *cq.Tableau, schemas map[string]*relation.Schema, cfg searchConfig) (*valuationSearch, bool) {
	doms, ok := t.AsCQ().VarDomains(schemas)
	if !ok {
		return nil, false
	}
	// Template-major variable order.
	var order []string
	slotOf := make(map[string]int, len(t.Vars))
	add := func(name string) {
		if _, seen := slotOf[name]; !seen {
			slotOf[name] = len(order)
			order = append(order, name)
		}
	}
	for _, tpl := range t.Templates {
		for _, a := range tpl.Args {
			if a.IsVar {
				add(a.Name)
			}
		}
	}
	for _, v := range t.Vars {
		add(v)
	}
	s := &valuationSearch{
		u: u, t: t, doms: doms, order: order,
		naive: cfg.naive, gate: cfg.gate,
	}
	s.compileCandidates(cfg)
	operand := func(tm query.Term) int32 {
		if tm.IsVar {
			return int32(slotOf[tm.Name])
		}
		return ^relation.Shared().Intern(tm.Val)
	}
	s.diseqsAt = make([][]slotDiseq, len(order))
	for _, dq := range t.Diseqs {
		d := slotDiseq{l: operand(dq.L), r: operand(dq.R), neg: dq.Neg}
		s.diseqs = append(s.diseqs, d)
		if last := max(d.l, d.r); last >= 0 {
			s.diseqsAt[last] = append(s.diseqsAt[last], d)
		}
	}
	s.head = make([]int32, len(t.Head))
	s.headAt = -1
	for i, h := range t.Head {
		s.head[i] = operand(h)
		s.headAt = max(s.headAt, int(s.head[i]))
	}
	s.tpls = t.SlotTemplates(slotOf, schemas)
	if !cfg.naive && cfg.v != nil {
		s.pruner = newINDPruner(t, slotOf, operand, cfg.v, cfg.dm)
	}
	return s, true
}

// compileCandidates resolves every slot's candidate list once: a fixed
// list when cfg names one, the dedicated fresh value of a collapsed
// variable, the finite domain, or else the relevant values (all of the
// constants without rv) followed by the fresh pool.
func (s *valuationSearch) compileCandidates(cfg searchConfig) {
	dict := relation.Shared()
	ids := func(vals []relation.Value) []int32 {
		out := make([]int32, len(vals))
		for i, v := range vals {
			out[i] = dict.Intern(v)
		}
		return out
	}
	var collapsed map[string]int32
	var occ map[string][]varPosition
	if !cfg.naive {
		if cfg.constrained != nil {
			// Dedicated fresh values come from the end of the pool; the
			// symmetry-breaking prefix grows from the front, so the two
			// never collide while the pool holds one value per variable.
			idx := len(s.u.freshIDs)
			for _, name := range collapsibleVars(s.t, cfg.constrained, s.doms) {
				idx--
				if idx < 0 {
					break // pool too small: the rest search in full
				}
				if collapsed == nil {
					collapsed = make(map[string]int32)
				}
				collapsed[name] = s.u.freshIDs[idx]
			}
		}
		if cfg.rv != nil {
			occ = allVarOccurrences(s.t)
		}
	}
	s.cands = make([]slotCandidates, len(s.order))
	for i, name := range s.order {
		c := &s.cands[i]
		if vals, ok := cfg.fixed[name]; ok {
			c.base = ids(vals)
		} else if id, ok := collapsed[name]; ok {
			c.base = []int32{id}
		} else if dom := s.doms[name]; dom.Kind == relation.Finite {
			c.base = ids(dom.Values)
		} else {
			c.base, c.fresh = s.u.constIDs, true
			if occ != nil {
				c.base = cfg.rv.candidatesFor(occ[name])
			}
		}
	}
}

// freshCandidates returns the fresh values slot c tries at symmetry
// level freshUsed: fresh values are interchangeable, so only the ones
// already used plus the first unused one need be tried.
func (s *valuationSearch) freshCandidates(c *slotCandidates, freshUsed int) []int32 {
	if !c.fresh {
		return nil
	}
	limit := freshUsed + 1
	if s.naive || limit > len(s.u.freshIDs) {
		limit = len(s.u.freshIDs)
	}
	return s.u.freshIDs[:limit]
}

// newWorker returns the per-goroutine state of one walk over the
// search, every slot unassigned.
func (s *valuationSearch) newWorker() *searchWorker {
	w := &searchWorker{s: s, slots: make([]int32, len(s.order)), jump: noJump}
	for i := range w.slots {
		w.slots[i] = unassigned
	}
	return w
}

// binding converts a slot array to a query.Binding over the assigned
// slots — the only place a valuation leaves its id form.
func (s *valuationSearch) binding(slots []int32) query.Binding {
	vals := relation.Shared().Snapshot()
	b := make(query.Binding, len(s.order))
	for i, name := range s.order {
		if slots[i] != unassigned {
			b[name] = vals[slots[i]]
		}
	}
	return b
}

// headIDs appends the head's ids under slots, which must bind every
// slot up to headAt, to dst.
func (s *valuationSearch) headIDs(dst, slots []int32) []int32 {
	for _, op := range s.head {
		dst = append(dst, operandID(op, slots))
	}
	return dst
}

// headTuple instantiates the output summary u under a complete slot
// array.
func (s *valuationSearch) headTuple(slots []int32) relation.Tuple {
	vals := relation.Shared().Snapshot()
	out := make(relation.Tuple, len(s.head))
	for i, op := range s.head {
		out[i] = vals[operandID(op, slots)]
	}
	return out
}

// searchWorker is the state of one task of a keyed-task search (see
// branchTasks): the slot array and the probe scratch, the task's
// complete-valuation callback and key, the answered-head cut and the
// shared controllers.
type searchWorker struct {
	s     *valuationSearch // shared, read-only during the search
	slots []int32
	ids   []int32 // IND and head projection scratch

	// answers, when non-nil, is Q(D): a binding that completes an
	// answered head (slot headAt) is rejected, since no extension of
	// it can be a witness. Only the RCDP walk sets it; walks that count
	// valuations (degree) or test other conditions on them (RCQP's
	// E3/E4 search) leave it nil. cuts tallies the rejections.
	answers *relation.IDTupleSet
	cuts    int

	// The nogood of the last rejected valuation (RCDP walks only, see
	// nogood.go): jump is the slot the walk unwinds to (noJump when
	// none), keep[i], once allocated, restricts slot i's remaining
	// candidates, and jumps tallies the nogoods that skipped
	// valuations. pick and cmp are refute's scratch.
	jump  int
	keep  []slotKeep
	jumps int
	pick  []int
	cmp   []int32

	fn     parallelFn // the callback every admitted complete valuation reaches
	budget *budgetCtl // shared with the disjunct's other tasks
	ctl    *raceCtl   // shared with the whole search
	key    int64      // this task's claim key

	// Callback scratch owned by this walk: wc is the RCDP witness
	// checker, taken from the check's witnessPool at the first complete
	// valuation and released when the walk ends; frag is the reusable
	// μ(T) fragment of RCQP's E3/E4 search (satisfiesV).
	wc   *witnessChecker
	frag *relation.Database
}

// rec extends the valuation at slot i. freshUsed is the number of fresh
// values the bound slots use (the symmetry level).
func (w *searchWorker) rec(i, freshUsed int) error {
	if w.ctl.cancelled(w.key) {
		return errAbandoned
	}
	s := w.s
	if err := s.gate.Poll(); err != nil {
		// Governance stop: a keyed task surfaces it through ctl.fail
		// (via branchTasks' error path) so every other task abandons
		// promptly.
		return err
	}
	if i == len(w.slots) {
		return w.complete()
	}
	if w.keep != nil {
		w.keep[i].on = false // a restriction of an earlier prefix
	}
	c := &s.cands[i]
	base, fresh := c.base, s.freshCandidates(c, freshUsed)
	for k := range len(base) + len(fresh) {
		var id int32
		if k < len(base) {
			id = base[k]
		} else {
			id = fresh[k-len(base)]
		}
		if w.keep != nil && w.keep[i].on && !slices.Contains(w.keep[i].ids, id) {
			continue // refuted by a nogood (see nogood.go)
		}
		if err := w.descend(i, id, freshUsed); err != nil {
			return err
		}
		if w.jump <= i {
			if w.jump < i {
				return nil // a nogood refuted every candidate left here
			}
			w.jump = noJump
		}
	}
	return nil
}

// descend binds slot i to id and, when that is admissible, searches the
// rest of the valuation below it.
func (w *searchWorker) descend(i int, id int32, freshUsed int) error {
	if !w.assign(i, id) {
		return nil
	}
	fresh := w.s.u.freshIDs
	if freshUsed < len(fresh) && fresh[freshUsed] == id {
		freshUsed++
	}
	err := w.rec(i+1, freshUsed)
	w.slots[i] = unassigned
	return err
}

// assign binds slot i to id and checks what the binding decides: the
// inequality conditions and the IND-pruned templates it completes, and
// on a walk given Q(D) whether it completes an answered head. On false
// the slot is unassigned again.
func (w *searchWorker) assign(i int, id int32) bool {
	w.slots[i] = id
	s := w.s
	if s.naive {
		return true
	}
	for _, dq := range s.diseqsAt[i] {
		if !dq.holds(w.slots) {
			w.slots[i] = unassigned
			return false
		}
	}
	if s.pruner != nil && !s.pruner.admit(w, i) {
		w.slots[i] = unassigned
		return false
	}
	if i == s.headAt && w.answers != nil {
		w.ids = s.headIDs(w.ids[:0], w.slots)
		if w.answers.Has(w.ids) {
			w.cuts++
			w.slots[i] = unassigned
			return false
		}
	}
	return true
}

// complete charges one complete valuation to the budget and hands it to
// the task's callback. A budget that runs out claims the disjunct's
// budget key; a claim from the callback ends the task.
func (w *searchWorker) complete() error {
	s := w.s
	if !w.budget.visit() {
		w.ctl.claim(budgetKey(keyDisjunct(w.key)), nil)
		return errBudgetStop
	}
	if s.naive {
		// Naive mode checks no condition on partial valuations.
		for _, dq := range s.diseqs {
			if !dq.holds(w.slots) {
				return nil
			}
		}
	}
	claim, err := w.fn(w, w.slots)
	if err != nil {
		return err
	}
	if claim != nil {
		w.ctl.claim(w.key, claim)
		return errStop
	}
	return nil
}
