package cq

import (
	"fmt"
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

// EvalGate is Eval under gate governance (see CQ.EvalGate): the
// answer set of AnswerIDsGate, materialized and sorted.
func (t *Tableau) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	return evalGate([]*Tableau{t}, len(t.Head), d, g)
}

// evalGate materializes the answers of the union of ts over d as
// sorted tuples.
func evalGate(ts []*Tableau, width int, d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	set, err := AnswerIDsGate(ts, width, d, g)
	if err != nil {
		return nil, err
	}
	vals := relation.Shared().Snapshot()
	buf := make([]relation.Value, set.Len()*width)
	out := make([]relation.Tuple, set.Len())
	for i := range out {
		tp := relation.Tuple(buf[i*width : (i+1)*width : (i+1)*width])
		for j, id := range set.At(i) {
			tp[j] = vals[id]
		}
		out[i] = tp
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// AnswerIDsGate evaluates the union of the tableaux ts over d and
// returns its answers as head id tuples of the given width, which every
// tableau's head must have. Each join runs in plan order with the
// existential cut (see ijoin.cut): once the head is bound, an answered
// head is skipped and a new one needs only one binding of the remaining
// variables, so the join visits far fewer rows than the full
// enumeration of its bindings. Each candidate tuple charges one
// row-step on g, and the first gate error stops the evaluation and is
// returned with no answers (a partial answer set is not a sound answer
// set). A nil gate is free.
func AnswerIDsGate(ts []*Tableau, width int, d *relation.Database, g *query.Gate) (*relation.IDTupleSet, error) {
	set := relation.NewIDTupleSet(width, 0)
	for _, t := range ts {
		if len(t.Head) != width {
			return nil, fmt.Errorf("cq: %s has a head of %d terms, want %d", t.Query.Name, len(t.Head), width)
		}
		gs := gate(g)
		es := evalStats{evals: 1}
		st := t.isetup(d, gs, &es)
		if !st.ip.unsat && st.ip.headBound {
			st.answers(st.planOrder(), set)
		}
		es.flush()
		if err := gs.finish(); err != nil {
			return nil, err
		}
	}
	return set, nil
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
	// cardCuts counts branches the cardinality cut pruned (card.go).
	cardCuts int64
}

// flush charges the accumulated counts to the process-global metrics
// and zeroes them.
func (es *evalStats) flush() {
	obs.Evals.Add(es.evals)
	obs.JoinRows.Add(es.rows)
	obs.IndexProbes.Add(es.probes)
	obs.FullScans.Add(es.scans)
	obs.CardinalityCuts.Add(es.cardCuts)
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
// picks the unused template with the fewest estimated matching rows
// given the slots bound so far (see templateCost). Ties break toward
// fewer newly-bound variables, then lowest template position, keeping
// the order deterministic. It also plans each template's probe column
// (see planProbe) into st.probeAt. It reads the instances and constant
// ids the enumeration was set up with, so it resolves nothing a second
// time.
func (st *ijoin) planOrder() []int {
	ip := st.ip
	n := len(ip.tmpls)
	st.probeAt = make([]int, n)
	used := make([]bool, n)
	bound := make([]bool, len(st.slots))
	base := make([]float64, n)
	for i := range base {
		base[i] = st.constRows(i)
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestCost, bestNew := -1, 0.0, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			cost, newVars := st.templateCost(i, base[i], bound)
			if best == -1 || cost < bestCost || (cost == bestCost && newVars < bestNew) {
				best, bestCost, bestNew = i, cost, newVars
			}
		}
		used[best] = true
		order = append(order, best)
		st.probeAt[best] = st.planProbe(best, bound)
		for _, a := range ip.tmpls[best] {
			if a >= 0 {
				bound[a] = true
			}
		}
	}
	return order
}

// constRows returns the estimated rows of template i before any
// variable is bound: the instance's rows times, for each constant
// column, the exact share of rows holding that constant. A missing
// instance, or a constant no row of its column holds, gives 0.
func (st *ijoin) constRows(i int) float64 {
	if st.ins[i] == nil {
		return 0
	}
	ix := st.ixs[i]
	rows := float64(ix.Rows())
	est := rows
	for col, a := range st.ip.tmpls[i] {
		if a < 0 && est > 0 {
			est *= float64(idCount(ix, col, st.cids[-a-1])) / rows
		}
	}
	return est
}

// idCount returns how many rows of ix hold id in column col: a filtered
// count over a small view's column, the posting container's size
// otherwise (Distinct builds those containers anyway).
func idCount(ix relation.IDIndex, col int, id int32) int {
	if !ix.Small() {
		return int(ix.Postings(col, id).N)
	}
	n := 0
	for _, c := range ix.Cols()[col] {
		if c == id {
			n++
		}
	}
	return n
}

// planProbe returns the column template i probes when it is joined
// with the slots bound: the bound column expected to match the fewest
// rows — a constant's exact count, rows/Distinct for a bound variable
// — first on ties, or -1, a full scan, when no column is bound.
func (st *ijoin) planProbe(i int, bound []bool) int {
	if st.ins[i] == nil || st.ixs[i].Rows() == 0 {
		return -1
	}
	ix := st.ixs[i]
	best, bestRows := -1, 0.0
	for col, a := range st.ip.tmpls[i] {
		var rows float64
		switch {
		case a < 0:
			rows = float64(idCount(ix, col, st.cids[-a-1]))
		case bound[a]:
			rows = float64(ix.Rows()) / float64(ix.Distinct(col))
		default:
			continue
		}
		if best < 0 || rows < bestRows {
			best, bestRows = col, rows
		}
	}
	return best
}

// templateCost estimates how many rows of template i match under the
// bound slots — its constant-filtered rows est (constRows) times
// 1/Distinct(col) for each column holding a bound variable, as if the
// columns were independent — and counts the variable arguments it
// would newly bind.
func (st *ijoin) templateCost(i int, est float64, bound []bool) (cost float64, newVars int) {
	for col, a := range st.ip.tmpls[i] {
		switch {
		case a < 0:
		case !bound[a]:
			newVars++
		case est > 0:
			est /= float64(st.ixs[i].Distinct(col))
		}
	}
	return est, newVars
}

// DeltaProbe is differential (semi-naive) evaluation of a tableau,
// prepared against one base database d and run for many deltas: each
// Run enumerates the matches over d ∪ Δ that use at least one Δ row,
// without materializing the union. The base instances and their index
// views, the constant ids, the slot, trail and head buffers and the
// gate state are set up once, and each Run only rebinds the delta
// rows. The decision procedures test one delta per candidate valuation
// against the same d, which is what this amortizes.
//
// d must not be mutated while the probe is in use (the views it holds
// are per generation). A probe is single-goroutine. Its join counters
// accumulate across runs and reach the obs metrics on Flush; each Run
// counts as one evaluation.
type DeltaProbe struct {
	t   *Tableau
	st  *ijoin
	gs  gateState
	es  evalStats
	fn  func(head []int32) bool
	sup *Support
}

// NewDeltaProbe prepares differential evaluation of t against d.
func (t *Tableau) NewDeltaProbe(d *relation.Database) *DeltaProbe {
	p := &DeltaProbe{t: t}
	p.st = t.isetup(d, nil, &p.es)
	p.st.leaf = p.st.headLeaf(func(head []int32) bool {
		if p.fn(head) {
			return true
		}
		if p.sup != nil {
			p.st.support(t, p.sup)
		}
		return false
	})
	return p
}

// Run enumerates the head tuples (as ids, in a reused slice) of the
// matches over d ∪ delta that use at least one delta row. For each
// template position j it joins template j against delta alone and the
// other templates against d and then delta, which covers every new
// match at least once (possibly more than once, e.g. when several
// templates match delta rows or a delta row already occurs in d); it
// enumerates every such binding, with no cut. Each candidate tuple
// charges one row-step on g, the first gate error aborts the run and
// is returned, and fn returning false stops it. A nil gate is free.
// delta is read, not kept: the caller may refill it once Run returns.
func (p *DeltaProbe) Run(delta *DeltaRows, g *query.Gate, fn func(head []int32) bool) error {
	return p.RunSupport(delta, g, fn, nil)
}

// RunSupport is Run that, when fn stops the run, records in sup the
// delta rows of the match whose head stopped it (see Support); sup is
// left empty when fn never stops the run. A nil sup records nothing.
func (p *DeltaProbe) RunSupport(delta *DeltaRows, g *query.Gate, fn func(head []int32) bool, sup *Support) error {
	sup.Reset()
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
	p.fn, p.sup = fn, sup
	st.runDeltaAll(len(p.t.Templates))
	p.fn, p.sup = nil, nil
	return st.gs.finish()
}

// Flush charges the join counters accumulated since the last Flush to
// the obs metrics.
func (p *DeltaProbe) Flush() { p.es.flush() }
