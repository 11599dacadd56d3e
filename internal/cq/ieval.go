package cq

import (
	"math/bits"
	"slices"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the join engine: a backtracking nested-loop join over
// dictionary ids and posting lists. Variables compile to slots, the
// plain join follows the cost-based template order of planOrder and
// probes the bound column it planned, differential evaluation leads
// with the delta template and probes the bound column with the most
// distinct ids. Answer evaluation cuts the plain join once
// the head is bound (see cut). Its independent reference is the naive
// nested-loop evaluator of naive_test.go, which the randomized
// differential tests in reference_test.go and cut_test.go check every
// entry point against.

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
	// kinds classifies every template column (see ColKind).
	kinds [][]ColKind
	// cards are the groups of the cardinality cut (card.go); nil when
	// the tableau has none.
	cards []cardGroup
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
	ip.kinds = ip.columnKinds()
	ip.cards = ip.cardGroups(t.Templates)
	return ip
}

// headPrefix returns the length of the shortest prefix of the plan
// order whose templates bind every head variable: from that position
// on the head tuple is fixed, and the rest of the plan only decides
// whether it is an answer. A head without variables gives 0. The plan
// must bind the head (headBound).
func (ip *iplan) headPrefix(order []int) int {
	k := 0
	for _, h := range ip.head {
		if h < 0 {
			continue
		}
		for p, ti := range order {
			if slices.Contains(ip.tmpls[ti], h) {
				k = max(k, p+1)
				break
			}
		}
	}
	return k
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
// unwinding, the per-template instances of the base database and, for
// delta evaluation, the per-template rows of the delta. A nil instance
// or row set contributes no rows. Answer evaluation (answers) adds the
// state of its existential cut.
type ijoin struct {
	ip *iplan

	ins []*relation.Instance
	ixs []relation.IDIndex

	drs []*deltaRel // delta rows (delta evaluation only; nil until bindDelta)
	src []bool      // template -> its current row came from the delta (delta evaluation only)

	probeAt []int // template -> column the plain join probes, -1 a scan (planOrder)

	cids  []int32 // constant index -> id
	slots []int32 // var slot -> id, -1 unbound
	trail []int32 // newly bound slots, unwound on backtrack

	gs   *gateState
	es   *evalStats
	leaf func() bool

	// The cardinality cut (card.go): cardAt holds, per group of
	// ip.cards, the plan position that checks it; nil without groups.
	cardAt []int

	// The existential cut: cutAt is the plan position where every head
	// slot is bound (-1: no cut, every binding is enumerated), hbuf
	// the head ids resolved there, ans the answer set the cut's leaf
	// fills, and cutHit the signal of that leaf's stop.
	cutAt  int
	hbuf   []int32
	ans    *relation.IDTupleSet
	cutHit bool
}

// isetup prepares one enumeration over d. A relation missing from d,
// or whose arity differs from the template's, contributes no rows —
// exactly as no tuple of it could match the template. Differential
// evaluation binds its delta rows afterwards with bindDelta.
func (t *Tableau) isetup(d *relation.Database, gs *gateState, es *evalStats) *ijoin {
	ip := t.plan()
	dict := relation.Shared()
	n := len(t.Templates)
	nc, nv := len(ip.consts), len(t.Vars)
	// One backing array serves cids, slots and the (bounded by nv)
	// trail.
	ibuf := make([]int32, nc+nv, nc+2*nv)
	st := &ijoin{
		ip:    ip,
		ins:   make([]*relation.Instance, n),
		ixs:   make([]relation.IDIndex, n),
		cids:  ibuf[:nc],
		slots: ibuf[nc : nc+nv],
		trail: ibuf[nc+nv : nc+nv : nc+2*nv],
		gs:    gs,
		es:    es,
		cutAt: -1,
	}
	for i, a := range t.Templates {
		if in := d.Instance(a.Rel); in != nil && in.Schema.Arity() == len(a.Args) {
			st.ins[i] = in
			st.ixs[i] = in.IDs()
		}
	}
	for i, c := range ip.consts {
		st.cids[i] = dict.Intern(c)
	}
	for i := range st.slots {
		st.slots[i] = -1
	}
	return st
}

// bindDelta (re)binds the delta rows of a differential enumeration,
// under the same missing-relation and arity rules as the base
// instances of isetup.
func (st *ijoin) bindDelta(t *Tableau, delta *DeltaRows) {
	if st.drs == nil {
		st.drs = make([]*deltaRel, len(t.Templates))
		st.src = make([]bool, len(t.Templates))
	}
	for i, a := range t.Templates {
		st.drs[i] = delta.rel(a.Rel, len(a.Args))
	}
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

// run recursively matches template order[k], taking the cardinality
// cut at the positions that check its groups and the existential cut
// at its position.
func (st *ijoin) run(order []int, k int) bool {
	if st.cardAt != nil && st.cardinalityCut(k) {
		return true
	}
	if k == st.cutAt {
		return st.cut(order, k)
	}
	return st.match(order, k)
}

// match matches template order[k], or reaches the leaf past the last
// template.
func (st *ijoin) match(order []int, k int) bool {
	if k == len(order) {
		return st.leaf()
	}
	ti := order[k]
	if st.ins[ti] == nil {
		return true
	}
	return st.enum(st.ixs[ti], st.ip.tmpls[ti], st.probeAt[ti], iframe{order: order, k: k})
}

// answers runs the plain join in plan order with the cardinality and
// existential cuts, adding the head of every answer to set.
func (st *ijoin) answers(order []int, set *relation.IDTupleSet) {
	st.ans = set
	st.hbuf = make([]int32, len(st.ip.head))
	st.cutAt = st.ip.headPrefix(order)
	st.cardAt = st.ip.cardPositions(order)
	st.leaf = func() bool {
		st.ans.Add(st.hbuf)
		st.cutHit = true
		return false
	}
	st.run(order, 0)
}

// cut is the existential cut at plan position k, where every head slot
// is bound: the answer is fixed, and the rest of the plan only has to
// show that some binding of the remaining variables exists. A head
// already answered is skipped; any other one runs the rest of the plan
// until its first leaf, which adds the head and stops with cutHit set.
// The cut ends that stop here and clears the signal for the next head;
// a stop without it — a gate trip — goes on up.
func (st *ijoin) cut(order []int, k int) bool {
	for i, h := range st.ip.head {
		st.hbuf[i], _ = st.resolve(h)
	}
	if st.ans.Has(st.hbuf) {
		return true
	}
	if st.match(order, k) {
		return true // no binding of the rest: not an answer
	}
	if !st.cutHit {
		return false
	}
	st.cutHit = false
	return true
}

// runDelta matches template idx[k] for differential evaluation: the
// deltaAt template reads only delta, every other template reads d and
// then delta. Template order is positional after the leading deltaAt
// template: deltas are typically tiny, so it binds its variables
// first.
func (st *ijoin) runDelta(idx []int, k, deltaAt int) bool {
	if k == len(idx) {
		return st.leaf()
	}
	ti := idx[k]
	args := st.ip.tmpls[ti]
	f := iframe{delta: true, order: idx, k: k, deltaAt: deltaAt}
	if ti == deltaAt {
		if st.drs[ti] == nil {
			return true
		}
		st.src[ti] = true
		return st.enumRows(st.drs[ti], args, f)
	}
	if st.ins[ti] != nil {
		st.src[ti] = false
		if !st.enum(st.ixs[ti], args, st.mostDistinct(st.ixs[ti], args), f) {
			return false
		}
	}
	if st.drs[ti] != nil {
		st.src[ti] = true
		if !st.enumRows(st.drs[ti], args, f) {
			return false
		}
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

// mostDistinct returns the bound column of args with the most distinct
// ids in ix, first on ties, or -1 when no argument is bound: the probe
// of the differential join, whose bound slots differ from one delta
// pass to the next.
func (st *ijoin) mostDistinct(ix relation.IDIndex, args []iterm) int {
	probeCol, bestDc := -1, -1
	for i, a := range args {
		if _, bound := st.resolve(a); bound {
			if dc := ix.Distinct(i); dc > bestDc {
				probeCol, bestDc = i, dc
			}
		}
	}
	return probeCol
}

// enum enumerates the candidate rows of one template against one
// instance: the posting container of the bound column probeCol (a
// constant or an already-bound variable), or the full rank scan when
// probeCol is -1. Posting containers are ascending rank subsequences
// of the scan, so candidate enumeration order is the deterministic
// tuple order either way.
func (st *ijoin) enum(ix relation.IDIndex, args []iterm, probeCol int, f iframe) bool {
	cols := ix.Cols()
	if probeCol >= 0 {
		probeID, _ := st.resolve(args[probeCol])
		st.es.probes++
		if ix.Small() {
			// A small instance (a relation of a toy or test database, a
			// hard-search truth table, an RCQP candidate fragment):
			// filtering the rank scan costs less than building posting
			// containers for it.
			return st.filterScan(cols, ix.Rows(), probeCol, probeID, args, f)
		}
		p := ix.Postings(probeCol, probeID)
		if p.Bits != nil {
			for w, word := range p.Bits.Words() {
				for word != 0 {
					r := int32(w<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					if !st.tryRank(cols, args, r, f) {
						return false
					}
				}
			}
			return true
		}
		for _, r := range p.Ranks {
			if !st.tryRank(cols, args, r, f) {
				return false
			}
		}
		return true
	}
	st.es.scans++
	return st.scan(cols, ix.Rows(), args, f)
}

// enumRows is enum over the rows of one delta relation. A delta holds a
// handful of rows, so a bound column is probed by filtering the scan;
// the probe column is chosen as mostDistinct chooses it, so the rows
// visited and charged are those of the differential join's enum over
// an Instance holding the same rows.
func (st *ijoin) enumRows(dr *deltaRel, args []iterm, f iframe) bool {
	probeCol, bestDc := -1, -1
	var probeID int32
	for i, a := range args {
		id, bound := st.resolve(a)
		if !bound {
			continue
		}
		if dc := dr.distinct[i]; dc > bestDc {
			probeCol, probeID, bestDc = i, id, dc
		}
	}
	if probeCol >= 0 {
		st.es.probes++
		return st.filterScan(dr.cols, dr.n, probeCol, probeID, args, f)
	}
	st.es.scans++
	return st.scan(dr.cols, dr.n, args, f)
}

// filterScan tries those of the n rows whose column probeCol holds
// probeID. Skipped rows are not charged, exactly as rows outside a
// posting container never are.
func (st *ijoin) filterScan(cols [][]int32, n, probeCol int, probeID int32, args []iterm, f iframe) bool {
	for r, id := range cols[probeCol][:n] {
		if id == probeID && !st.tryRank(cols, args, int32(r), f) {
			return false
		}
	}
	return true
}

// scan tries all n rows.
func (st *ijoin) scan(cols [][]int32, n int, args []iterm, f iframe) bool {
	for r := int32(0); r < int32(n); r++ {
		if !st.tryRank(cols, args, r, f) {
			return false
		}
	}
	return true
}

// tryRank charges one candidate row (rank in the columns cols), matches
// the template args against it by integer compare, checks the
// inequalities that just became decidable, and recurses. Returning
// false stops the whole enumeration (gate trip or fn stop); a mere
// match failure returns true.
func (st *ijoin) tryRank(cols [][]int32, args []iterm, rank int32, f iframe) bool {
	st.es.rows++
	if !st.gs.step() {
		return false
	}
	mark := len(st.trail)
	for i, a := range args {
		cid := cols[i][rank]
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
