package cq

import (
	"math/bits"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the join engine: a backtracking nested-loop join over
// dictionary ids and posting lists. Variables compile to slots, the
// plain join follows the cost-based template order of planOrder and
// probes the most selective bound column, differential evaluation leads
// with the delta template. Its independent reference is the naive
// nested-loop evaluator of naive_test.go, which the randomized
// differential test in reference_test.go checks every entry point
// against.

// iterm is one compiled term: a non-negative value is an index into the
// tableau's sorted Vars (a slot), a negative value encodes a constant
// as -(index into iplan.consts)-1.
type iterm int32

// iplan is the compiled slot plan of a tableau: templates, head and
// inequality terms rewritten to variable slots and constant indexes.
// Queries that passed CQ.Validate bind every variable in some template;
// for hand-made unsafe ones the plan records what the variables no
// template binds imply: an inequality over one can never be decided
// true, so no binding satisfies the query (unsat), and a head over one
// cannot be instantiated, so no answer tuple exists (!headBound).
type iplan struct {
	consts    []relation.Value
	tmpls     [][]iterm
	head      []iterm
	diseqs    [][2]iterm
	unsat     bool
	headBound bool
}

// buildIPlan compiles the tableau's terms into slots. It is cheap and
// deterministic, so it runs unconditionally at BuildTableau time.
func (t *Tableau) buildIPlan() *iplan {
	ip := &iplan{}
	slot := make(map[string]int, len(t.Vars))
	for i, v := range t.Vars {
		slot[v] = i
	}
	constIdx := make(map[relation.Value]int)
	covered := make([]bool, len(t.Vars))
	term := func(tm query.Term, cover bool) iterm {
		if tm.IsVar {
			s := slot[tm.Name]
			if cover {
				covered[s] = true
			}
			return iterm(s)
		}
		ci, ok := constIdx[tm.Val]
		if !ok {
			ci = len(ip.consts)
			constIdx[tm.Val] = ci
			ip.consts = append(ip.consts, tm.Val)
		}
		return iterm(-ci - 1)
	}
	ip.tmpls = make([][]iterm, len(t.Templates))
	for i, a := range t.Templates {
		args := make([]iterm, len(a.Args))
		for j, tm := range a.Args {
			args[j] = term(tm, true)
		}
		ip.tmpls[i] = args
	}
	bound := func(tm iterm) bool { return tm < 0 || covered[tm] }
	ip.head = make([]iterm, len(t.Head))
	ip.headBound = true
	for i, h := range t.Head {
		ip.head[i] = term(h, false)
		ip.headBound = ip.headBound && bound(ip.head[i])
	}
	for _, dq := range t.Diseqs {
		pair := [2]iterm{term(dq.L, false), term(dq.R, false)}
		ip.diseqs = append(ip.diseqs, pair)
		ip.unsat = ip.unsat || !bound(pair[0]) || !bound(pair[1])
	}
	return ip
}

// plan returns the compiled slot plan; tableaux not built by
// BuildTableau compile theirs per call.
func (t *Tableau) plan() *iplan {
	if t.ip == nil {
		return t.buildIPlan()
	}
	return t.ip
}

// ijoin is one enumeration's state: the slot binding (ids, -1
// unbound), resolved constant ids, the trail of newly bound slots for
// unwinding, and the per-template instances of the base (and, for delta
// evaluation, delta) database. A nil instance contributes no rows.
type ijoin struct {
	ip   *iplan
	vals []relation.Value // dictionary snapshot for materialization

	ins []*relation.Instance
	ixs []relation.IDIndex

	dins []*relation.Instance // delta instances (delta evaluation only)
	dixs []relation.IDIndex

	cids  []int32 // constant index -> id
	slots []int32 // var slot -> id, -1 unbound
	trail []int32 // newly bound slots, unwound on backtrack

	gs   *gateState
	es   *evalStats
	leaf func() bool
}

// isetup prepares one enumeration over d and, when delta is non-nil,
// the delta database. A relation missing from a database, or whose
// arity differs from the template's, contributes no rows — exactly as
// no tuple of it could match the template.
func (t *Tableau) isetup(d, delta *relation.Database, gs *gateState, es *evalStats) *ijoin {
	ip := t.plan()
	dict := relation.Shared()
	n := len(t.Templates)
	nc, nv := len(ip.consts), len(t.Vars)
	// One backing array serves cids, slots and the (bounded by nv)
	// trail; one instance slice and one index slice each serve both the
	// base and the delta halves. The decision procedures run one setup
	// per valuation per constraint, so these five-allocations-for-two
	// matters.
	ibuf := make([]int32, nc+nv, nc+2*nv)
	insbuf := make([]*relation.Instance, 2*n)
	ixbuf := make([]relation.IDIndex, 2*n)
	st := &ijoin{
		ip:    ip,
		ins:   insbuf[:n],
		ixs:   ixbuf[:n],
		dins:  insbuf[n:],
		dixs:  ixbuf[n:],
		cids:  ibuf[:nc],
		slots: ibuf[nc : nc+nv],
		trail: ibuf[nc+nv : nc+nv : nc+2*nv],
		gs:    gs,
		es:    es,
	}
	for i, a := range t.Templates {
		if in := d.Instance(a.Rel); in != nil && in.Schema.Arity() == len(a.Args) {
			st.ins[i] = in
			st.ixs[i] = in.IDs()
		}
		if delta == nil {
			continue
		}
		if in := delta.Instance(a.Rel); in != nil && in.Schema.Arity() == len(a.Args) {
			st.dins[i] = in
			st.dixs[i] = in.IDs()
		}
	}
	for i, c := range ip.consts {
		st.cids[i] = dict.Intern(c)
	}
	for i := range st.slots {
		st.slots[i] = -1
	}
	st.vals = dict.Snapshot()
	return st
}

// resolve returns the id of a term under the current binding; bound is
// false for an unbound variable slot.
func (st *ijoin) resolve(tm iterm) (int32, bool) {
	if tm < 0 {
		return st.cids[-tm-1], true
	}
	id := st.slots[tm]
	return id, id >= 0
}

// unwind resets the slots bound since mark.
func (st *ijoin) unwind(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		st.slots[st.trail[i]] = -1
	}
	st.trail = st.trail[:mark]
}

// iframe carries the recursion continuation through enum/tryRank
// without per-depth closures: plain join (delta=false) resumes run,
// delta join resumes runDelta.
type iframe struct {
	delta   bool
	order   []int
	k       int
	deltaAt int
}

func (st *ijoin) next(f iframe) bool {
	if f.delta {
		return st.runDelta(f.order, f.k+1, f.deltaAt)
	}
	return st.run(f.order, f.k+1)
}

// run recursively matches template order[k].
func (st *ijoin) run(order []int, k int) bool {
	if k == len(order) {
		return st.leaf()
	}
	ti := order[k]
	if st.ins[ti] == nil {
		return true
	}
	return st.enum(st.ixs[ti], st.ip.tmpls[ti], iframe{order: order, k: k})
}

// runDelta matches template idx[k] for differential evaluation: the
// deltaAt template reads only delta, every other template reads d and
// then delta. Template order is positional after the leading deltaAt
// template: delta instances are typically tiny, so it binds its
// variables first.
func (st *ijoin) runDelta(idx []int, k, deltaAt int) bool {
	if k == len(idx) {
		return st.leaf()
	}
	ti := idx[k]
	args := st.ip.tmpls[ti]
	f := iframe{delta: true, order: idx, k: k, deltaAt: deltaAt}
	if ti == deltaAt {
		if st.dins[ti] == nil {
			return true
		}
		return st.enum(st.dixs[ti], args, f)
	}
	if st.ins[ti] != nil && !st.enum(st.ixs[ti], args, f) {
		return false
	}
	if st.dins[ti] != nil && !st.enum(st.dixs[ti], args, f) {
		return false
	}
	return true
}

// runDeltaAll drives one delta pass per template position, with a
// fresh binding each time.
func (st *ijoin) runDeltaAll(n int) {
	var ib [8]int
	idx := ib[:min(n, len(ib))]
	if n > len(ib) {
		idx = make([]int, n)
	}
	for j := 0; j < n; j++ {
		idx[0] = j
		p := 1
		for i := 0; i < n; i++ {
			if i != j {
				idx[p] = i
				p++
			}
		}
		for s := range st.slots {
			st.slots[s] = -1
		}
		st.trail = st.trail[:0]
		if !st.runDelta(idx, 0, j) {
			return
		}
	}
}

// enum enumerates the candidate rows of one template against one
// instance: when some argument is bound (a constant or an already-bound
// variable), the posting container of the bound column with the most
// distinct values — the most selective equality probe, first such
// column on ties — otherwise the full rank scan. Posting containers are
// ascending rank subsequences of the scan, so candidate enumeration
// order is the deterministic tuple order either way.
func (st *ijoin) enum(ix relation.IDIndex, args []iterm, f iframe) bool {
	probeCol, bestDc := -1, -1
	var probeID int32
	for i, a := range args {
		id, bound := st.resolve(a)
		if !bound {
			continue
		}
		if dc := ix.Distinct(i); dc > bestDc {
			probeCol, probeID, bestDc = i, id, dc
		}
	}
	if probeCol >= 0 {
		st.es.probes++
		if ix.Small() {
			// Tiny instance (a per-valuation Δ): filter the rank scan
			// instead of building posting containers. Skipped rows are
			// not charged, exactly as rows outside a posting bucket
			// never were.
			col := ix.Col(probeCol)
			for r := range col {
				if col[r] != probeID {
					continue
				}
				if !st.tryRank(ix, args, int32(r), f) {
					return false
				}
			}
			return true
		}
		p := ix.Postings(probeCol, probeID)
		if p.Bits != nil {
			for w, word := range p.Bits.Words() {
				for word != 0 {
					r := int32(w<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					if !st.tryRank(ix, args, r, f) {
						return false
					}
				}
			}
			return true
		}
		for _, r := range p.Ranks {
			if !st.tryRank(ix, args, r, f) {
				return false
			}
		}
		return true
	}
	st.es.scans++
	n := int32(ix.Rows())
	for r := int32(0); r < n; r++ {
		if !st.tryRank(ix, args, r, f) {
			return false
		}
	}
	return true
}

// tryRank charges one candidate row, matches the template args against
// it by integer compare, checks the inequalities that just became
// decidable, and recurses. Returning false stops the whole enumeration
// (gate trip or fn stop); a mere match failure returns true.
func (st *ijoin) tryRank(ix relation.IDIndex, args []iterm, rank int32, f iframe) bool {
	st.es.rows++
	if !st.gs.step() {
		return false
	}
	mark := len(st.trail)
	for i, a := range args {
		cid := ix.Col(i)[rank]
		if a < 0 {
			if st.cids[-a-1] != cid {
				st.unwind(mark)
				return true
			}
		} else if s := st.slots[a]; s >= 0 {
			if s != cid {
				st.unwind(mark)
				return true
			}
		} else {
			st.slots[a] = cid
			st.trail = append(st.trail, int32(a))
		}
	}
	for _, dq := range st.ip.diseqs {
		l, lb := st.resolve(dq[0])
		r, rb := st.resolve(dq[1])
		if lb && rb && l == r {
			st.unwind(mark)
			return true
		}
	}
	cont := st.next(f)
	st.unwind(mark)
	return cont
}

// bindingLeaf adapts a Binding-consuming fn to the slot engine: one
// reused map is refreshed from the slots at each leaf. Every slot a
// template binds is bound there; slots of variables no template binds
// (unsafe, unvalidated queries) stay out of the binding.
func (st *ijoin) bindingLeaf(vars []string, fn func(query.Binding) bool) func() bool {
	b := make(query.Binding, len(vars))
	return func() bool {
		for s, name := range vars {
			if id := st.slots[s]; id >= 0 {
				b[name] = st.vals[id]
			}
		}
		return fn(b)
	}
}

// headLeaf resolves the head into hbuf at each leaf and hands it to fn.
func (st *ijoin) headLeaf(fn func(head []int32) bool) func() bool {
	hbuf := make([]int32, len(st.ip.head))
	return func() bool {
		for i, h := range st.ip.head {
			hbuf[i], _ = st.resolve(h)
		}
		return fn(hbuf)
	}
}
