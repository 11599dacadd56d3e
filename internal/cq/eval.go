package cq

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// Eval evaluates the CQ over the database and returns the set of answer
// tuples in deterministic order. Boolean queries return either the empty
// result or a single empty tuple. The tableau is compiled once per query
// identity and cached (see Compiled).
func (q *CQ) Eval(d *relation.Database) []relation.Tuple {
	t, err := q.Compiled()
	if err != nil {
		return nil // unsatisfiable queries have empty answers everywhere
	}
	return t.Eval(d)
}

// EvalGate is Eval under gate governance: enumeration charges one
// row-step per candidate tuple and stops with the gate's error as soon
// as the budget trips or the context is cancelled. Answers computed
// before the stop are discarded (a partial answer set is not a sound
// answer set).
func (q *CQ) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	t, err := q.Compiled()
	if err != nil {
		return nil, nil // unsatisfiable queries have empty answers everywhere
	}
	return t.EvalGate(d, g)
}

// EvalBool evaluates a Boolean query.
func (q *CQ) EvalBool(d *relation.Database) bool {
	return len(q.Eval(d)) > 0
}

// Eval evaluates the tableau over the database. Atoms are joined in a
// cost-based order with index probes on bound columns; inequality
// conditions are checked as soon as both sides are bound.
func (t *Tableau) Eval(d *relation.Database) []relation.Tuple {
	out, _ := t.EvalGate(d, nil)
	return out
}

// EvalGate is Eval under gate governance (see CQ.EvalGate). Answers
// dedup on fixed-width id-keys (no per-leaf Binding, HeadTuple or
// string Key) and materialize to sorted tuples once at the end.
func (t *Tableau) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	gs := gate(g)
	es := evalStats{evals: 1}
	st := t.isetup(d, gs, &es)
	seen := make(map[string]bool)
	var answers [][]int32
	var kbuf []byte
	st.leaf = st.headLeaf(func(head []int32) bool {
		kbuf = relation.AppendIDKey(kbuf[:0], head)
		if !seen[string(kbuf)] {
			seen[string(kbuf)] = true
			answers = append(answers, append([]int32(nil), head...))
		}
		return true
	})
	if !st.ip.unsat && st.ip.headBound {
		st.run(t.planOrder(d), 0)
	}
	es.flush()
	if err := gs.finish(); err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, len(answers))
	for i, ids := range answers {
		tp := make(relation.Tuple, len(ids))
		for j, id := range ids {
			tp[j] = st.vals[id]
		}
		out[i] = tp
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// EvalFuncGate enumerates all satisfying bindings of the tableau over
// d, invoking fn for each; enumeration stops early when fn returns
// false. The binding passed to fn is reused between calls — clone it to
// keep. Each candidate tuple enumerated by the join charges one
// row-step on g, and the first gate error aborts enumeration and is
// returned. A nil gate is free.
func (t *Tableau) EvalFuncGate(d *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	gs := gate(g)
	es := evalStats{evals: 1}
	st := t.isetup(d, gs, &es)
	st.leaf = st.bindingLeaf(t.Vars, fn)
	if !st.ip.unsat {
		st.run(t.planOrder(d), 0)
	}
	es.flush()
	return gs.finish()
}

// evalStats accumulates observability counts in plain stack-local
// integers — the same batching discipline as gateState: the hot join
// loop pays a non-atomic increment per row, and the shared obs
// counters are charged once when the enumeration ends (or, for a
// DeltaProbe, once per Flush over all its runs), keeping the
// instrumented path within noise of the uninstrumented one
// (BenchmarkObsOverhead).
type evalStats struct {
	evals  int64 // enumerations (one per evaluation or DeltaProbe.Run)
	rows   int64 // candidate join rows enumerated
	probes int64 // join steps answered from a column index
	scans  int64 // join steps answered by a full instance scan
}

// flush charges the accumulated counts to the process-global metrics
// and zeroes them.
func (es *evalStats) flush() {
	obs.Evals.Add(es.evals)
	obs.JoinRows.Add(es.rows)
	obs.IndexProbes.Add(es.probes)
	obs.FullScans.Add(es.scans)
	*es = evalStats{}
}

// gateState threads a gate through the join recursion. The join's
// boolean "continue" protocol cannot carry an error, so the first gate
// error is parked here and the recursion unwinds through the ordinary
// stop path. A nil *gateState (ungoverned evaluation) costs one nil
// check per row.
//
// Row charges are batched: the per-evaluation pending counter (plain,
// single-goroutine) absorbs the per-row cost and is flushed to the
// shared gate every gateFlushRows rows and once more when enumeration
// ends, so totals stay exact while the hot loop pays neither an atomic
// increment nor a cancellation check per row. Cancellation and budget
// stops are therefore detected within gateFlushRows row-steps.
type gateState struct {
	g       *query.Gate
	err     error
	pending int64
}

// gateFlushRows is the row-charge batching granularity: small enough
// that a stop is near-immediate on human scales, large enough that the
// shared atomic and the done-channel check vanish from per-row cost
// (see BenchmarkEvalGateOverhead).
const gateFlushRows = 64

// gate wraps a Gate for the join recursion; nil stays nil so the
// ungoverned path keeps its zero-cost contract.
func gate(g *query.Gate) *gateState {
	if g == nil {
		return nil
	}
	return &gateState{g: g}
}

// step charges one row and reports whether enumeration may continue.
func (gs *gateState) step() bool {
	if gs == nil {
		return true
	}
	gs.pending++
	if gs.pending < gateFlushRows {
		return true
	}
	return gs.flush()
}

// flush forwards the pending rows to the shared gate.
func (gs *gateState) flush() bool {
	err := gs.g.StepN(gs.pending)
	gs.pending = 0
	if err != nil {
		if gs.err == nil {
			gs.err = err
		}
		return false
	}
	return true
}

// finish flushes the remainder when enumeration ends and returns the
// first gate error, if any. Nil-safe for the ungoverned path.
func (gs *gateState) finish() error {
	if gs == nil {
		return nil
	}
	if gs.err == nil && gs.pending > 0 {
		gs.flush()
	}
	return gs.err
}

// planOrder orders the templates for the join, cost-based: each step
// picks the unused template with the lowest estimated candidate count
// given the variables bound so far, where an equality probe on a bound
// column of instance in is expected to match about
// in.Len()/in.Distinct(col) tuples and an unbound template costs a full
// scan. Ties break toward fewer newly-bound variables, then lowest
// template position, keeping the order deterministic.
func (t *Tableau) planOrder(d *relation.Database) []int {
	n := len(t.Templates)
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestCost, bestNew := -1, 0, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			cost, newVars := templateCost(d, t.Templates[i], bound)
			if best == -1 || cost < bestCost || (cost == bestCost && newVars < bestNew) {
				best, bestCost, bestNew = i, cost, newVars
			}
		}
		used[best] = true
		order = append(order, best)
		for _, a := range t.Templates[best].Args {
			if a.IsVar {
				bound[a.Name] = true
			}
		}
	}
	return order
}

// templateCost estimates how many candidate tuples matching the atom
// will be enumerated under the current bound-variable set, and counts
// the variables the atom would newly bind.
func templateCost(d *relation.Database, atom query.RelAtom, bound map[string]bool) (cost, newVars int) {
	for _, arg := range atom.Args {
		if arg.IsVar && !bound[arg.Name] {
			newVars++
		}
	}
	in := d.Instance(atom.Rel)
	if in == nil || in.Len() == 0 {
		return 0, newVars
	}
	cost = in.Len()
	for col, arg := range atom.Args {
		if arg.IsVar && !bound[arg.Name] {
			continue
		}
		if dc := in.Distinct(col); dc > 0 {
			if est := (in.Len() + dc - 1) / dc; est < cost {
				cost = est
			}
		}
	}
	return cost, newVars
}

// EvalFuncDeltaGate enumerates bindings of the tableau over d ∪ delta
// restricted to matches that use at least one delta tuple, without ever
// materializing the union. It implements one step of semi-naive
// (differential) evaluation: for each template position j it enumerates
// joins where template j matches only delta and the remaining templates
// match d and then delta, which covers every new match at least once
// (possibly invoking fn more than once per binding, e.g. when several
// templates match delta tuples or a delta tuple already occurs in d).
// fn returning false stops enumeration. Each candidate tuple charges
// one row-step; the first gate error aborts enumeration and is
// returned. A nil gate is free.
func (t *Tableau) EvalFuncDeltaGate(d, delta *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	gs := gate(g)
	es := evalStats{evals: 1}
	st := t.isetup(d, gs, &es)
	st.bindDelta(t, DeltaRowsOf(delta))
	st.leaf = st.bindingLeaf(t.Vars, fn)
	if !st.ip.unsat {
		st.runDeltaAll(len(t.Templates))
	}
	es.flush()
	return gs.finish()
}

// EvalFuncDeltaIDsGate is EvalFuncDeltaGate with fn receiving the head
// tuple as dictionary ids (the slice is reused between calls) instead
// of a materialized Binding, which is what lets cc's incremental
// constraint check compare heads against its id-keyed p(Dm) memo
// without any per-leaf string work. It is a one-shot DeltaProbe.
func (t *Tableau) EvalFuncDeltaIDsGate(d, delta *relation.Database, g *query.Gate, fn func(head []int32) bool) error {
	p := t.NewDeltaProbe(d)
	err := p.Run(DeltaRowsOf(delta), g, fn)
	p.Flush()
	return err
}

// DeltaProbe is EvalFuncDeltaIDsGate prepared against one base
// database d and run for many deltas: the base instances and their
// index views, the constant ids, the slot, trail and head buffers and
// the gate state are set up once, and each Run only rebinds the delta
// rows. The decision procedures test one delta per candidate valuation
// against the same d, which is what this amortizes.
//
// d must not be mutated while the probe is in use (the views it holds
// are per generation). A probe is single-goroutine. Its join counters
// accumulate across runs and reach the obs metrics on Flush; each Run
// counts as one evaluation, so the totals equal those of one
// EvalFuncDeltaIDsGate per delta.
type DeltaProbe struct {
	t  *Tableau
	st *ijoin
	gs gateState
	es evalStats
	fn func(head []int32) bool
}

// NewDeltaProbe prepares differential evaluation of t against d.
func (t *Tableau) NewDeltaProbe(d *relation.Database) *DeltaProbe {
	p := &DeltaProbe{t: t}
	p.st = t.isetup(d, nil, &p.es)
	p.st.leaf = p.st.headLeaf(func(head []int32) bool { return p.fn(head) })
	return p
}

// Run enumerates the head tuples (as ids, in a reused slice) of the
// matches over d ∪ delta that use at least one delta row, with the
// semantics of EvalFuncDeltaIDsGate: each candidate tuple charges one
// row-step on g, the first gate error aborts the run and is returned,
// and fn returning false stops it. A nil gate is free. delta is read,
// not kept: the caller may refill it once Run returns.
func (p *DeltaProbe) Run(delta *DeltaRows, g *query.Gate, fn func(head []int32) bool) error {
	p.es.evals++
	st := p.st
	if st.ip.unsat || !st.ip.headBound {
		return nil
	}
	st.bindDelta(p.t, delta)
	st.gs = nil
	if g != nil {
		p.gs = gateState{g: g}
		st.gs = &p.gs
	}
	p.fn = fn
	st.runDeltaAll(len(p.t.Templates))
	p.fn = nil
	return st.gs.finish()
}

// Flush charges the join counters accumulated since the last Flush to
// the obs metrics.
func (p *DeltaProbe) Flush() { p.es.flush() }
