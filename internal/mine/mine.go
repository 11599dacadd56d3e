// Package mine discovers containment constraints from observed
// evidence. The checker side of the system (core, cc) assumes the
// constraint set V is *given*; this package answers where V comes from,
// porting the AMIE completeness-assistant idea to the relative-
// information-completeness setting: from a collection of observed
// (D, Dm) pairs, propose candidate constraints q(D) ⊆ p(Dm), score
// each by support and confidence over the evidence, and validate the
// survivors with the unmodified core.RCDPCtx checker as oracle.
//
// The candidate space is enumerated level-wise, most general shapes
// first, like the approximation lattice of internal/approx:
//
//  1. width-1 projections  π_i(R) ⊆ π_a(Rm)        (plain INDs)
//  2. width-2 projections  π_{i,j}(R) ⊆ π_{a,b}(Rm), Apriori-grown
//     from surviving width-1 candidates only
//  3. two-atom joins       q(x) :- R1(…x…), R2(…x…) ⊆ π_a(Rm),
//     projecting the join variable (foreign-key style)
//  4. Var = Const selection refinements of candidates that *failed*
//     confidence, with constants drawn from low-cardinality evidence
//     columns — the step that recovers the paper's φ₀ shape
//     σ_{cc='01'}(Cust ⋈ Supt) ⊆ π_cid(DCust)
//
// Refining only failed candidates keeps output maximal by
// construction: a fragment σ_c(q) is proposed only when q itself is
// not a constraint of the evidence. A final subsumption pass drops any
// candidate implied by an already-emitted one (projection closure of
// the right-hand side + Chandra–Merlin containment of the left-hand
// sides via cq.Specializes), and the oracle pass re-checks every
// survivor: in the default OracleComplete mode a constraint is emitted
// only if each evidence database is provably Complete for the
// constraint's own left-hand-side query under V = {candidate} — the
// strongest certificate the framework offers that the constraint is
// not an artifact of the sample.
package mine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// Pair is one observed evidence pair: a database D and the master data
// Dm it was captured against.
type Pair struct {
	D  *relation.Database
	Dm *relation.Database
}

// OracleMode selects how survivors are validated before emission.
type OracleMode string

const (
	// OracleComplete (the default) emits a candidate only when every
	// evidence database is Complete for the candidate's left-hand-side
	// query relative to (Dm, {candidate}) per core.RCDPCtx.
	OracleComplete OracleMode = "complete"
	// OracleClosure emits candidates on confidence alone — the
	// containment held on every evidence pair where it fired — and
	// records Validated = false.
	OracleClosure OracleMode = "closure"
)

// Options tune the enumeration, scoring and validation.
type Options struct {
	// MinSupport is the minimum fraction of evidence pairs on which a
	// candidate's left-hand side must return answers (default 0.5).
	MinSupport float64
	// MinConfidence is the minimum fraction of firing pairs on which
	// the containment must hold (default 1.0: mine only constraints
	// consistent with all evidence).
	MinConfidence float64
	// MaxSelectorCard bounds the number of distinct values a column may
	// take (max over pairs) to qualify as a selection column
	// (default 8).
	MaxSelectorCard int
	// MaxConstants bounds how many constants are tried per selection
	// column, most frequent first (default 4).
	MaxConstants int
	// MaxCandidates caps the total number of scored candidates; the
	// enumeration stops and Stats.Truncated is set when it is reached
	// (default 256). Serving deployments clamp it like
	// -max-approx-candidates.
	MaxCandidates int
	// Oracle selects the validation mode (default OracleComplete).
	Oracle OracleMode
	// Budget governs each oracle check (default: 1s timeout, 100k
	// valuations per disjunct).
	Budget core.Budget
	// Workers is the oracle checker's parallelism (default sequential).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.5
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 1.0
	}
	if o.MaxSelectorCard <= 0 {
		o.MaxSelectorCard = 8
	}
	if o.MaxConstants <= 0 {
		o.MaxConstants = 4
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 256
	}
	if o.Oracle == "" {
		o.Oracle = OracleComplete
	}
	if o.Budget == (core.Budget{}) {
		o.Budget = core.Budget{Timeout: time.Second, MaxValuations: 100000}
	}
	return o
}

// Mined is one emitted constraint with its evidence scores.
type Mined struct {
	Constraint *cc.Constraint
	// Support is the fraction of evidence pairs on which the left-hand
	// side fired; Confidence the fraction of firing pairs on which the
	// containment held.
	Support    float64
	Confidence float64
	// Validated reports that the completeness oracle certified the
	// constraint on every evidence pair (always true under
	// OracleComplete; false under OracleClosure).
	Validated bool
	// Signature is the canonical shape string used for ground-truth
	// matching (see Signature).
	Signature string
}

// Stats counts the enumeration's work.
type Stats struct {
	Pairs          int
	Enumerated     int
	Survivors      int
	Subsumed       int
	OracleRejected int
	Emitted        int
	// Truncated reports that MaxCandidates stopped the enumeration
	// before the candidate space was exhausted.
	Truncated bool
}

// Result is the outcome of a Mine run.
type Result struct {
	Mined []Mined
	Stats Stats
}

// Constraints returns the emitted constraints as a checker-ready set.
func (r *Result) Constraints() *cc.Set {
	s := cc.NewSet()
	for _, m := range r.Mined {
		s.Add(m.Constraint)
	}
	return s
}

// candidate is one scored constraint hypothesis. Its constraint is
// built once: scoring, the oracle and emission all use it.
type candidate struct {
	q   *cq.CQ
	con *cc.Constraint
	// generality rank components for the emission order: selections
	// after unconditioned shapes, single atoms before joins, wider
	// right-hand sides first.
	nconds, natoms int
	// sig is the canonical signature, computed for survivors only.
	sig          string
	fires, holds int
}

func (c *candidate) support(pairs int) float64 {
	if pairs == 0 {
		return 0
	}
	return float64(c.fires) / float64(pairs)
}

func (c *candidate) confidence() float64 {
	if c.fires == 0 {
		return 0
	}
	return float64(c.holds) / float64(c.fires)
}

type engine struct {
	ctx   context.Context
	opt   Options
	pairs []Pair
	// schemas is the union of database and master schemas, the
	// vocabulary for containment checks and oracle validation.
	schemas map[string]*relation.Schema
	dbRels  []string
	mRels   []string
	stats   Stats
	// emitted carries, per emitted constraint, its implied projection
	// closure for the subsumption check.
	emitted []emittedC
}

type emittedC struct {
	implied []impliedC
}

type impliedC struct {
	q    *cq.CQ
	proj cc.Projection
}

// Mine proposes, scores and validates containment constraints over the
// evidence pairs. All pairs must share relation schemas (names and
// arities).
func Mine(ctx context.Context, pairs []Pair, opt Options) (*Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("mine: no evidence pairs")
	}
	e := &engine{ctx: ctx, opt: opt, pairs: pairs}
	if err := e.init(); err != nil {
		return nil, err
	}
	obs.MineRuns.Inc()
	survivors, err := e.enumerate()
	if err != nil {
		return nil, err
	}
	e.stats.Survivors = len(survivors)
	// Only survivors are sorted and emitted, so only they need the
	// canonical signature.
	for _, c := range survivors {
		c.sig = canonSig(c.q, c.con.P)
	}

	// Emission order: most general first, so the subsumption basis is
	// already populated when weaker shapes are considered.
	sort.SliceStable(survivors, func(i, j int) bool {
		a, b := survivors[i], survivors[j]
		if a.nconds != b.nconds {
			return a.nconds < b.nconds
		}
		if a.natoms != b.natoms {
			return a.natoms < b.natoms
		}
		if a.con.P.Arity() != b.con.P.Arity() {
			return a.con.P.Arity() > b.con.P.Arity()
		}
		return a.sig < b.sig
	})

	res := &Result{}
	for _, c := range survivors {
		if e.subsumed(c) {
			e.stats.Subsumed++
			continue
		}
		validated, err := e.oracle(c)
		if err != nil {
			return nil, err
		}
		if !validated && opt.Oracle != OracleClosure {
			e.stats.OracleRejected++
			obs.MineOracleRejections.Inc()
			continue
		}
		c.con.Name = fmt.Sprintf("mined%d", len(res.Mined))
		res.Mined = append(res.Mined, Mined{
			Constraint: c.con,
			Support:    c.support(len(pairs)),
			Confidence: c.confidence(),
			Validated:  validated,
			Signature:  c.sig,
		})
		e.emit(c)
	}
	e.stats.Pairs = len(pairs)
	e.stats.Emitted = len(res.Mined)
	res.Stats = e.stats
	obs.MineEmitted.Add(int64(len(res.Mined)))
	obs.MineSeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// init validates schema consistency across pairs and builds the
// enumeration vocabulary.
func (e *engine) init() error {
	first := e.pairs[0]
	if first.D == nil || first.Dm == nil {
		return fmt.Errorf("mine: evidence pair 0 is missing a database")
	}
	e.schemas = make(map[string]*relation.Schema)
	e.dbRels = append([]string(nil), first.D.Relations()...)
	e.mRels = append([]string(nil), first.Dm.Relations()...)
	sort.Strings(e.dbRels)
	sort.Strings(e.mRels)
	for _, r := range e.dbRels {
		e.schemas[r] = first.D.Schema(r)
	}
	for _, r := range e.mRels {
		if _, dup := e.schemas[r]; dup {
			return fmt.Errorf("mine: relation %s appears in both database and master schemas", r)
		}
		e.schemas[r] = first.Dm.Schema(r)
	}
	for pi, p := range e.pairs[1:] {
		if p.D == nil || p.Dm == nil {
			return fmt.Errorf("mine: evidence pair %d is missing a database", pi+1)
		}
		for _, r := range e.dbRels {
			s := p.D.Schema(r)
			if s == nil || s.Arity() != e.schemas[r].Arity() {
				return fmt.Errorf("mine: evidence pair %d disagrees on schema of %s", pi+1, r)
			}
		}
		for _, r := range e.mRels {
			s := p.Dm.Schema(r)
			if s == nil || s.Arity() != e.schemas[r].Arity() {
				return fmt.Errorf("mine: evidence pair %d disagrees on master schema of %s", pi+1, r)
			}
		}
	}
	return nil
}

// errTruncated is the internal enumeration-stop sentinel.
var errTruncated = fmt.Errorf("mine: candidate budget exhausted")

// enumerate walks the candidate lattice and returns the scored
// survivors (support and confidence both above threshold).
func (e *engine) enumerate() ([]*candidate, error) {
	var survivors, refine []*candidate

	admit := func(c *candidate) (bool, error) {
		if err := e.ctx.Err(); err != nil {
			return false, err
		}
		if e.stats.Enumerated >= e.opt.MaxCandidates {
			e.stats.Truncated = true
			return false, errTruncated
		}
		e.stats.Enumerated++
		obs.MineCandidates.Inc()
		if err := e.score(c); err != nil {
			return false, err
		}
		if c.support(len(e.pairs)) < e.opt.MinSupport {
			return false, nil
		}
		if c.confidence() >= e.opt.MinConfidence {
			survivors = append(survivors, c)
			return true, nil
		}
		refine = append(refine, c)
		return false, nil
	}

	err := e.walk(admit)
	if err == errTruncated {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	// Selection refinements of failed shapes (one Var = Const each).
	for _, parent := range refine {
		for _, sel := range e.selections(parent) {
			if _, err := admit(sel); err != nil {
				if err == errTruncated {
					return survivors, nil
				}
				return nil, err
			}
		}
	}
	return survivors, nil
}

// walk enumerates the unconditioned shapes: width-1 projections,
// Apriori width-2 projections, and two-atom join candidates.
func (e *engine) walk(admit func(*candidate) (bool, error)) error {
	// Width-1 projections, remembering survivors per (R, M) for the
	// Apriori step.
	type colPair struct{ i, a int }
	singles := make(map[[2]string][]colPair)
	for _, r := range e.dbRels {
		for i := 0; i < e.schemas[r].Arity(); i++ {
			for _, m := range e.mRels {
				for a := 0; a < e.schemas[m].Arity(); a++ {
					if !e.overlap(r, i, m, a) {
						continue
					}
					ok, err := admit(e.projCandidate(r, []int{i}, m, []int{a}))
					if err != nil {
						return err
					}
					if ok {
						k := [2]string{r, m}
						singles[k] = append(singles[k], colPair{i, a})
					}
				}
			}
		}
	}
	// Width-2 projections from surviving singles on the same (R, M).
	for _, r := range e.dbRels {
		for _, m := range e.mRels {
			cps := singles[[2]string{r, m}]
			for x := 0; x < len(cps); x++ {
				for y := x + 1; y < len(cps); y++ {
					if cps[x].i == cps[y].i || cps[x].a == cps[y].a {
						continue
					}
					c := e.projCandidate(r, []int{cps[x].i, cps[y].i}, m, []int{cps[x].a, cps[y].a})
					if _, err := admit(c); err != nil {
						return err
					}
				}
			}
		}
	}
	// Two-atom joins on value-overlapping column pairs, projecting the
	// join variable (self-joins excluded to bound the space).
	for r1i, r1 := range e.dbRels {
		for _, r2 := range e.dbRels[r1i+1:] {
			for i := 0; i < e.schemas[r1].Arity(); i++ {
				for j := 0; j < e.schemas[r2].Arity(); j++ {
					inter := e.joinValues(r1, i, r2, j)
					if len(inter) == 0 {
						continue
					}
					for _, m := range e.mRels {
						for a := 0; a < e.schemas[m].Arity(); a++ {
							if !e.anyIn(inter, m, a) {
								continue
							}
							c := e.joinCandidate(r1, i, r2, j, m, a)
							if _, err := admit(c); err != nil {
								return err
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// projCandidate builds π_cols(rel) ⊆ π_mcols(m).
func (e *engine) projCandidate(rel string, cols []int, m string, mcols []int) *candidate {
	arity := e.schemas[rel].Arity()
	args := make([]query.Term, arity)
	for i := range args {
		args[i] = query.Var(fmt.Sprintf("x%d", i))
	}
	head := make([]query.Term, len(cols))
	for i, c := range cols {
		head[i] = args[c]
	}
	q := cq.New("cand", head, []query.RelAtom{{Rel: rel, Args: args}})
	return e.finish(q, cc.Proj(m, mcols...))
}

// joinCandidate builds q(x) :- r1(…x@i…), r2(…x@j…) ⊆ π_a(m).
func (e *engine) joinCandidate(r1 string, i int, r2 string, j int, m string, a int) *candidate {
	jv := query.Var("j0")
	args1 := make([]query.Term, e.schemas[r1].Arity())
	for k := range args1 {
		if k == i {
			args1[k] = jv
		} else {
			args1[k] = query.Var(fmt.Sprintf("a%d", k))
		}
	}
	args2 := make([]query.Term, e.schemas[r2].Arity())
	for k := range args2 {
		if k == j {
			args2[k] = jv
		} else {
			args2[k] = query.Var(fmt.Sprintf("b%d", k))
		}
	}
	q := cq.New("cand", []query.Term{jv},
		[]query.RelAtom{{Rel: r1, Args: args1}, {Rel: r2, Args: args2}})
	return e.finish(q, cc.Proj(m, a))
}

// selections derives the Var = Const refinements of a failed candidate:
// one selection on a non-head column whose evidence cardinality is low
// enough, with the most frequent constants tried first.
func (e *engine) selections(parent *candidate) []*candidate {
	headVars := make(map[string]bool)
	for _, t := range parent.q.Head {
		if t.IsVar {
			headVars[t.Name] = true
		}
	}
	var out []*candidate
	for _, atom := range parent.q.Atoms {
		for col, arg := range atom.Args {
			if !arg.IsVar || headVars[arg.Name] {
				continue
			}
			if e.selectorCard(atom.Rel, col) > e.opt.MaxSelectorCard {
				continue
			}
			for _, v := range e.topConstants(atom.Rel, col) {
				q := parent.q.Clone()
				q.Conds = append(q.Conds, query.Eq(query.Var(arg.Name), query.Const(v)))
				out = append(out, e.finish(q, parent.con.P))
			}
		}
	}
	return out
}

func (e *engine) finish(q *cq.CQ, p cc.Projection) *candidate {
	return &candidate{
		q:      q,
		con:    cc.FromCQ("cand", q, p),
		nconds: len(q.Conds),
		natoms: len(q.Atoms),
	}
}

// score evaluates the candidate's left-hand side on every pair as id
// tuples and counts firings and holds: a pair holds when every answer
// is in p(Dm), memoized by the pair's master instance and shared by
// every candidate over the same projection.
func (e *engine) score(c *candidate) error {
	ts, width := c.con.Q.Tableaux(), c.con.Q.Arity()
	for _, p := range e.pairs {
		ans, err := cq.AnswerIDsGate(ts, width, p.D, nil)
		if err != nil {
			return err
		}
		if ans.Len() == 0 {
			continue
		}
		c.fires++
		rhs := c.con.MasterIDs(p.Dm)
		ok := true
		for i := 0; i < ans.Len() && ok; i++ {
			ok = rhs.Has(ans.At(i))
		}
		if ok {
			c.holds++
		}
	}
	return nil
}

// overlap prefilters (R.i, M.a) pairs by shared values on the first
// evidence pair.
func (e *engine) overlap(r string, i int, m string, a int) bool {
	vals := e.colValues(e.pairs[0].Dm.Instance(m), a)
	in := e.pairs[0].D.Instance(r)
	if in == nil {
		return false
	}
	for _, t := range in.Tuples() {
		if vals[t[i]] {
			return true
		}
	}
	return false
}

// joinValues returns the shared values of R1.i and R2.j on the first
// evidence pair.
func (e *engine) joinValues(r1 string, i int, r2 string, j int) map[relation.Value]bool {
	left := e.colValues(e.pairs[0].D.Instance(r1), i)
	out := make(map[relation.Value]bool)
	in := e.pairs[0].D.Instance(r2)
	if in == nil {
		return out
	}
	for _, t := range in.Tuples() {
		if left[t[j]] {
			out[t[j]] = true
		}
	}
	return out
}

func (e *engine) anyIn(vals map[relation.Value]bool, m string, a int) bool {
	mv := e.colValues(e.pairs[0].Dm.Instance(m), a)
	for v := range vals {
		if mv[v] {
			return true
		}
	}
	return false
}

func (e *engine) colValues(in *relation.Instance, col int) map[relation.Value]bool {
	out := make(map[relation.Value]bool)
	if in == nil {
		return out
	}
	for _, t := range in.Tuples() {
		out[t[col]] = true
	}
	return out
}

// selectorCard is the maximum distinct-value count of (rel, col)
// across evidence pairs.
func (e *engine) selectorCard(rel string, col int) int {
	card := 0
	for _, p := range e.pairs {
		if in := p.D.Instance(rel); in != nil {
			if d := in.Distinct(col); d > card {
				card = d
			}
		}
	}
	return card
}

// topConstants ranks (rel, col) values by the number of evidence pairs
// they appear in, keeping the MaxConstants most frequent.
func (e *engine) topConstants(rel string, col int) []relation.Value {
	presence := make(map[relation.Value]int)
	for _, p := range e.pairs {
		in := p.D.Instance(rel)
		if in == nil {
			continue
		}
		seen := make(map[relation.Value]bool)
		for _, t := range in.Tuples() {
			if !seen[t[col]] {
				seen[t[col]] = true
				presence[t[col]]++
			}
		}
	}
	vals := make([]relation.Value, 0, len(presence))
	for v := range presence {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool {
		if presence[vals[i]] != presence[vals[j]] {
			return presence[vals[i]] > presence[vals[j]]
		}
		return vals[i] < vals[j]
	})
	if len(vals) > e.opt.MaxConstants {
		vals = vals[:e.opt.MaxConstants]
	}
	return vals
}

// subsumed reports whether an emitted constraint (or one of its
// implied projections) already implies the candidate: same right-hand
// side and the candidate's query contained in the implier's.
func (e *engine) subsumed(c *candidate) bool {
	for _, em := range e.emitted {
		for _, imp := range em.implied {
			if !sameProj(imp.proj, c.con.P) {
				continue
			}
			ok, err := cq.Specializes(c.q, imp.q, e.schemas)
			if err == nil && ok {
				return true
			}
		}
	}
	return false
}

// emit adds the candidate and its implied projection closure to the
// subsumption basis: a width-k constraint implies each single-column
// projection of its head and right-hand side.
func (e *engine) emit(c *candidate) {
	e.emitted = append(e.emitted, emittedC{implied: impliedShapes(c.q, c.con.P)})
}

func sameProj(a, b cc.Projection) bool {
	if a.Rel != b.Rel || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

// oracle validates a candidate. Under OracleComplete every evidence
// database must be Complete for the candidate's left-hand-side query
// relative to (Dm, {candidate}). A candidate violated on some pair
// (its score holds on fewer pairs than it fires) leaves that D not
// partially closed, so it is rejected without a check; any error the
// checker returns is real.
func (e *engine) oracle(c *candidate) (bool, error) {
	if e.opt.Oracle == OracleClosure || c.holds < c.fires {
		return false, nil
	}
	v := cc.NewSet(c.con)
	ck := &core.Checker{Workers: e.opt.Workers, Budget: e.opt.Budget}
	for _, p := range e.pairs {
		res, err := ck.RCDPCtx(e.ctx, c.con.Q, p.D, p.Dm, v)
		if err != nil {
			if e.ctx.Err() != nil {
				return false, e.ctx.Err()
			}
			return false, fmt.Errorf("mine: oracle: %w", err)
		}
		if res.Verdict != core.VerdictComplete {
			return false, nil
		}
	}
	return true, nil
}
