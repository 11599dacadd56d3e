// Package approx turns an Incomplete RCDP verdict from a dead end into
// a product surface, following Corman/Nutt/Savković ("Complete
// Approximations of Incomplete Queries") and Section 2.3 of Fan &
// Geerts (completeness checking as a guide for data collection):
//
//   - Approximate computes complete approximations of an incomplete
//     query Q: maximal complete specializations (Q plus added
//     constant selections, drawn from the active domain and the
//     master-side p(Dm) projections, whose RCDP verdict is Complete)
//     and minimal complete generalizations (Q with constant-equality
//     selections dropped).
//   - Advise computes acquisition advice: a ranked set of candidate
//     tuples, derived from the witness valuations the RCDP search
//     already produces, whose insertion into D flips the verdict to
//     Complete — each batch re-verified through the incremental
//     core.Checker.RecheckDeltaCtx path.
//
// Both engines are correct by construction rather than heuristic:
// every candidate they return has been certified by the existing
// checker acting as oracle (an RCDP run for verdicts, a Chandra–Merlin
// containment test for the lattice direction), so a returned
// specialization IS complete and a returned advice batch DOES flip the
// verdict — there is nothing to trust beyond the checker itself.
//
// The specialization search is a level-wise (Apriori-style) walk of
// the finite lattice of selection sets: level k holds the candidates
// with k added selections, a candidate is expanded only while its
// verdict is Incomplete (a Complete candidate is already maximal along
// that branch, and its refinements are strictly less general), and
// supersets of certified-complete selection sets are pruned so the
// returned frontier is an antichain. Termination is structural: the
// candidate value pool per variable is finite (capped by
// MaxValuesPerVar), the lattice depth is capped by MaxSelections, the
// total oracle spend by MaxCandidates, and each oracle call is a
// decidable RCDP instance governed by the caller's Checker budget.
package approx

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// Options configures the approximation engines. The zero value applies
// the documented defaults.
type Options struct {
	// Checker is the oracle every candidate is certified with; nil uses
	// a default sequential checker. Its Budget governs each individual
	// oracle call.
	Checker *core.Checker
	// MaxSelections caps the specialization lattice depth (added
	// selections per candidate; default 2).
	MaxSelections int
	// MaxCandidates caps the total oracle calls one Approximate run may
	// spend across specializations and generalizations (default 64).
	MaxCandidates int
	// MaxValuesPerVar caps the candidate constants considered per query
	// variable (default 8).
	MaxValuesPerVar int
	// MaxRounds caps the witness-acquisition rounds of Advise
	// (default 8).
	MaxRounds int
}

func (o Options) checker() *core.Checker {
	if o.Checker != nil {
		return o.Checker
	}
	return &core.Checker{Workers: 1}
}

func (o Options) maxSelections() int {
	if o.MaxSelections > 0 {
		return o.MaxSelections
	}
	return 2
}

func (o Options) maxCandidates() int {
	if o.MaxCandidates > 0 {
		return o.MaxCandidates
	}
	return 64
}

func (o Options) maxValuesPerVar() int {
	if o.MaxValuesPerVar > 0 {
		return o.MaxValuesPerVar
	}
	return 8
}

func (o Options) maxRounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 8
}

// Selection is one added constant selection (Var = Value).
type Selection struct {
	Var   string
	Value relation.Value
}

// Specialization is one certified-complete specialization of Q: Query
// is Q extended with Selections, its RCDP verdict over (D, Dm, V) is
// Complete, and Query ⊆ Q holds by the containment oracle.
type Specialization struct {
	Query      *cq.CQ
	Selections []Selection
}

// Generalization is one certified-complete generalization of Q: Query
// is Q with the Dropped constant-equality conditions removed, its RCDP
// verdict is Complete, and Q ⊆ Query holds by the containment oracle.
type Generalization struct {
	Query   *cq.CQ
	Dropped []query.EqAtom
}

// Result is the outcome of Approximate.
type Result struct {
	// Verdict is the oracle's verdict for Q itself. Specializations and
	// Generalizations are populated only when it is Incomplete — a
	// Complete query needs no approximation and an Unknown one gives the
	// lattice no anchor.
	Verdict core.Verdict
	// Base is the underlying RCDP result for Q.
	Base *core.RCDPResult
	// Specializations are the maximal complete specializations found
	// (an antichain: no returned selection set contains another).
	Specializations []Specialization
	// Generalizations are the minimal complete generalizations found
	// (an antichain over dropped-condition sets).
	Generalizations []Generalization
	// Explored counts the oracle calls spent on candidates; Certified
	// counts the candidates that certified Complete.
	Explored  int
	Certified int
}

// Approximate computes the complete approximations of Q over
// (D, Dm, V). Q must be a conjunctive query (the selection lattice is
// a CQ construction); use Advise for the other monotone languages.
// Every returned candidate is certified: its RCDP verdict re-checks
// Complete and its containment relation to Q holds.
func Approximate(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set, opts Options) (*Result, error) {
	start := time.Now()
	defer func() { obs.ApproxSeconds.Observe(time.Since(start).Seconds()) }()

	qc, ok := qlang.AsCQ(q)
	if !ok {
		return nil, fmt.Errorf("approx: approximation requires a CQ query, got %v", q.Lang())
	}
	ck := opts.checker()
	// The base check and every lattice candidate share one (D, Dm, V)
	// setup.
	prep := core.Prepare(d, dm, v)
	base, err := ck.RCDPPreparedCtx(ctx, q, prep)
	if err != nil {
		return nil, err
	}
	res := &Result{Verdict: base.Verdict, Base: base}
	if base.Verdict != core.VerdictIncomplete {
		return res, nil
	}

	schemas := schemasOf(d)
	e := &engine{
		ctx:     ctx,
		ck:      ck,
		qc:      qc,
		d:       d,
		dm:      dm,
		v:       v,
		prep:    prep,
		schemas: schemas,
		budget:  opts.maxCandidates(),
	}
	if err := e.specialize(res, opts); err != nil {
		return nil, err
	}
	if err := e.generalize(res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// engine carries the shared state of one Approximate run.
type engine struct {
	ctx     context.Context
	ck      *core.Checker
	qc      *cq.CQ
	d, dm   *relation.Database
	v       *cc.Set
	prep    *core.Prepared
	schemas map[string]*relation.Schema
	budget  int // remaining oracle calls
}

// oracle runs one certified RCDP check on a candidate query, charging
// the shared candidate budget.
func (e *engine) oracle(cand *cq.CQ) (core.Verdict, error) {
	if e.budget <= 0 {
		return core.VerdictUnknown, nil
	}
	e.budget--
	obs.ApproxCandidates.Inc()
	res, err := e.ck.RCDPPreparedCtx(e.ctx, qlang.FromCQ(cand), e.prep)
	if err != nil {
		return core.VerdictUnknown, err
	}
	return res.Verdict, nil
}

// specialize runs the level-wise lattice search over added selections.
func (e *engine) specialize(res *Result, opts Options) error {
	sels := e.candidateSelections(opts.maxValuesPerVar())
	if len(sels) == 0 {
		return nil
	}
	// A node is a strictly increasing set of indices into sels; its
	// candidate query is qc plus those selections.
	type node struct{ idx []int }
	frontier := make([]node, 0, len(sels))
	for i := range sels {
		frontier = append(frontier, node{idx: []int{i}})
	}
	var completeSets [][]int
	isSubsumed := func(idx []int) bool {
		for _, cs := range completeSets {
			if subset(cs, idx) {
				return true
			}
		}
		return false
	}
	for level := 1; level <= opts.maxSelections() && len(frontier) > 0; level++ {
		var next []node
		for _, nd := range frontier {
			if e.budget <= 0 {
				return nil
			}
			if isSubsumed(nd.idx) {
				continue // refines an already-certified spec: not maximal
			}
			cand := specQuery(e.qc, sels, nd.idx)
			if _, err := cand.Compiled(); err != nil {
				continue // unsatisfiable under the added selections
			}
			verdict, err := e.oracle(cand)
			if err != nil {
				return err
			}
			res.Explored++
			switch verdict {
			case core.VerdictComplete:
				// Certify the lattice direction too: cand ⊆ Q. By
				// construction this holds (cand is Q plus conditions);
				// the containment oracle makes it checked, not assumed.
				sub, err := cq.Specializes(cand, e.qc, e.schemas)
				if err != nil || !sub {
					continue
				}
				obs.ApproxCertified.Inc("specialization")
				res.Certified++
				completeSets = append(completeSets, nd.idx)
				spec := Specialization{Query: cand}
				for _, i := range nd.idx {
					spec.Selections = append(spec.Selections, sels[i])
				}
				res.Specializations = append(res.Specializations, spec)
			case core.VerdictIncomplete:
				// Expand: add one more selection on a later index over a
				// variable not already selected (two selections on one
				// variable are unsatisfiable together).
				last := nd.idx[len(nd.idx)-1]
				for j := last + 1; j < len(sels); j++ {
					if selectsVar(sels, nd.idx, sels[j].Var) {
						continue
					}
					child := append(append([]int(nil), nd.idx...), j)
					next = append(next, node{idx: child})
				}
			}
			// Unknown: the oracle budget or governance stopped this
			// candidate; neither certify nor expand.
		}
		frontier = next
	}
	return nil
}

// generalize runs the level-wise search over dropped constant-equality
// conditions of Q.
func (e *engine) generalize(res *Result, opts Options) error {
	droppable := droppableConds(e.qc)
	if len(droppable) == 0 {
		return nil
	}
	type node struct{ idx []int }
	frontier := make([]node, 0, len(droppable))
	for i := range droppable {
		frontier = append(frontier, node{idx: []int{i}})
	}
	var completeSets [][]int
	for len(frontier) > 0 {
		var next []node
		for _, nd := range frontier {
			if e.budget <= 0 {
				return nil
			}
			subsumed := false
			for _, cs := range completeSets {
				if subset(cs, nd.idx) {
					subsumed = true
					break
				}
			}
			if subsumed {
				continue // drops more than an already-certified gen: not minimal
			}
			cand := genQuery(e.qc, droppable, nd.idx)
			if err := cand.Validate(e.schemas); err != nil {
				continue // dropping the condition made the query unsafe
			}
			verdict, err := e.oracle(cand)
			if err != nil {
				return err
			}
			res.Explored++
			switch verdict {
			case core.VerdictComplete:
				// Certify the direction: Q ⊆ cand.
				sup, err := cq.Specializes(e.qc, cand, e.schemas)
				if err != nil || !sup {
					continue
				}
				obs.ApproxCertified.Inc("generalization")
				res.Certified++
				completeSets = append(completeSets, nd.idx)
				gen := Generalization{Query: cand}
				for _, i := range nd.idx {
					gen.Dropped = append(gen.Dropped, e.qc.Conds[droppable[i]])
				}
				res.Generalizations = append(res.Generalizations, gen)
			case core.VerdictIncomplete:
				last := nd.idx[len(nd.idx)-1]
				for j := last + 1; j < len(droppable); j++ {
					child := append(append([]int(nil), nd.idx...), j)
					next = append(next, node{idx: child})
				}
			}
		}
		frontier = next
	}
	return nil
}

// candidateSelections builds the atomic selection pool: for every query
// variable, constants drawn from D's columns at the variable's atom
// positions and from the master-side p(Dm) projection columns aligned
// with those positions through the constraints' head variables —
// exactly the values a complete specialization can meaningfully pin,
// since the valuation search ranges over the active domain. Values are
// filtered by the variable's implied attribute domain, deduplicated,
// sorted and capped per variable for determinism.
func (e *engine) candidateSelections(maxPerVar int) []Selection {
	positions := varPositions(e.qc)
	doms, satisfiable := e.qc.VarDomains(e.schemas)
	if !satisfiable {
		return nil
	}
	fixed := fixedVars(e.qc)
	var out []Selection
	vars := make([]string, 0, len(positions))
	for v := range positions {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, name := range vars {
		if fixed[name] {
			continue // already pinned to a constant in Q itself
		}
		seen := make(map[relation.Value]bool)
		for _, pos := range positions[name] {
			if in := e.d.Instance(pos.rel); in != nil {
				for _, t := range in.Project([]int{pos.col}) {
					seen[t[0]] = true
				}
			}
			for _, val := range e.projectionValues(pos) {
				seen[val] = true
			}
		}
		dom := doms[name]
		vals := relation.SortedValues(seen)
		n := 0
		for _, val := range vals {
			if n >= maxPerVar {
				break
			}
			if dom.Kind == relation.Finite && !dom.Contains(val) {
				continue
			}
			out = append(out, Selection{Var: name, Value: val})
			n++
		}
	}
	return out
}

// position is one (relation, column) occurrence of a variable.
type position struct {
	rel string
	col int
}

// varPositions maps each variable of q to its atom positions.
func varPositions(q *cq.CQ) map[string][]position {
	out := make(map[string][]position)
	for _, a := range q.Atoms {
		for i, t := range a.Args {
			if t.IsVar {
				out[t.Name] = append(out[t.Name], position{rel: a.Rel, col: i})
			}
		}
	}
	return out
}

// fixedVars reports the variables q already equates to a constant.
func fixedVars(q *cq.CQ) map[string]bool {
	out := make(map[string]bool)
	for _, c := range q.Conds {
		if c.Neg {
			continue
		}
		if c.L.IsVar && !c.R.IsVar {
			out[c.L.Name] = true
		}
		if c.R.IsVar && !c.L.IsVar {
			out[c.R.Name] = true
		}
	}
	return out
}

// projectionValues returns the master-side p(Dm) values aligned with a
// database position: for every constraint whose head variable occupies
// pos in the constraint body, the Dm values of the corresponding
// projection column, read from the memoized p(Dm) and possibly
// repeated. These are the values the containment constraints allow at
// that position in any legal extension, so selections over them are
// the ones with a chance of carving out a complete fragment.
func (e *engine) projectionValues(pos position) []relation.Value {
	if e.v == nil || e.dm == nil {
		return nil
	}
	var out []relation.Value
	vals := relation.Shared().Snapshot()
	for _, c := range e.v.Constraints {
		if c.Reverse || c.P.IsEmptySet() {
			continue
		}
		cqc, ok := qlang.AsCQ(c.Q)
		if !ok || len(cqc.Head) != len(c.P.Cols) {
			continue
		}
		rhs := c.MasterIDs(e.dm)
		for k, h := range cqc.Head {
			if !h.IsVar || !occursAt(cqc, h.Name, pos) {
				continue
			}
			for i := 0; i < rhs.Len(); i++ {
				out = append(out, vals[rhs.At(i)[k]])
			}
		}
	}
	return out
}

// occursAt reports whether variable name occupies pos in some atom of q.
func occursAt(q *cq.CQ, name string, pos position) bool {
	for _, a := range q.Atoms {
		if a.Rel != pos.rel || pos.col >= len(a.Args) {
			continue
		}
		t := a.Args[pos.col]
		if t.IsVar && t.Name == name {
			return true
		}
	}
	return false
}

// specQuery builds Q plus the chosen selections as a fresh CQ.
func specQuery(q *cq.CQ, sels []Selection, idx []int) *cq.CQ {
	cand := q.Clone()
	cand.Name = q.Name + "_spec"
	for _, i := range idx {
		cand.Conds = append(cand.Conds, query.Eq(query.Var(sels[i].Var), query.Const(sels[i].Value)))
	}
	return cand
}

// droppableConds returns the indices of Q's constant-equality
// conditions (the selections generalization may remove).
func droppableConds(q *cq.CQ) []int {
	var out []int
	for i, c := range q.Conds {
		if c.Neg {
			continue
		}
		if (c.L.IsVar && !c.R.IsVar) || (c.R.IsVar && !c.L.IsVar) {
			out = append(out, i)
		}
	}
	return out
}

// genQuery builds Q minus the chosen droppable conditions as a fresh CQ.
func genQuery(q *cq.CQ, droppable []int, idx []int) *cq.CQ {
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[droppable[i]] = true
	}
	cand := q.Clone()
	cand.Name = q.Name + "_gen"
	cand.Conds = cand.Conds[:0]
	for i, c := range q.Conds {
		if !drop[i] {
			cand.Conds = append(cand.Conds, c)
		}
	}
	return cand
}

// selectsVar reports whether the node already selects a value for name.
func selectsVar(sels []Selection, idx []int, name string) bool {
	for _, i := range idx {
		if sels[i].Var == name {
			return true
		}
	}
	return false
}

// subset reports a ⊆ b for strictly increasing index slices.
func subset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// schemasOf collects the schema map of a database.
func schemasOf(d *relation.Database) map[string]*relation.Schema {
	out := make(map[string]*relation.Schema)
	for _, name := range d.Relations() {
		out[name] = d.Schema(name)
	}
	return out
}
