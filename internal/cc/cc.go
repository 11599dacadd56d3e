// Package cc implements containment constraints (CCs) of the form
// q(D) ⊆ p(Dm), the central specification device of Fan & Geerts: q is a
// query over the database schema R in a language L_C (CQ, UCQ, ∃FO⁺, FO
// or FP) and p is a projection query over the master data schema Rm —
// or the empty set, written q ⊆ ∅. A database D is partially closed
// with respect to (Dm, V) when (D, Dm) ⊨ V.
//
// The package also implements the integrity-constraint classes of
// Section 2.2 (denial constraints, CFDs, CINDs and their traditional
// FD/IND special cases) together with the Proposition 2.1 translations
// into containment constraints.
package cc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/fo"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// Projection is the right-hand side p of a containment constraint: a
// projection ∃x̄ Rm_i(x̄, ȳ) over one master relation, or the empty set
// (Rel == "", written q ⊆ ∅ in the paper).
type Projection struct {
	Rel  string
	Cols []int
}

// EmptySet is the right-hand side ∅.
func EmptySet() Projection { return Projection{} }

// Proj builds a projection over a master relation.
func Proj(rel string, cols ...int) Projection { return Projection{Rel: rel, Cols: cols} }

// IsEmptySet reports whether the projection denotes ∅.
func (p Projection) IsEmptySet() bool { return p.Rel == "" }

// Arity is the projection's output arity.
func (p Projection) Arity() int { return len(p.Cols) }

func (p Projection) String() string {
	if p.IsEmptySet() {
		return "∅"
	}
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = fmt.Sprintf("#%d", c)
	}
	return "π[" + strings.Join(cols, ",") + "](" + p.Rel + ")"
}

// Constraint is one containment constraint q(D) ⊆ p(Dm), or — when
// Reverse is set — the Section 5 extension p(Dm) ⊆ q(D) (see
// reverse.go).
type Constraint struct {
	Name string
	Q    qlang.Query
	P    Projection
	// Reverse flips the containment: p(Dm) ⊆ q(D).
	Reverse bool

	ind *INDShape // non-nil when the constraint is an IND (set by NewIND or DetectIND)
}

// MasterIDs returns p(Dm) as id tuples over the shared dictionary: the
// projection memoized by the master instance (Instance.ProjectIDSet),
// or the empty set for ∅ and for a master relation Dm lacks. The set
// is shared and must not be modified.
func (c *Constraint) MasterIDs(dm *relation.Database) *relation.IDTupleSet {
	if !c.P.IsEmptySet() && dm != nil {
		if in := dm.Instance(c.P.Rel); in != nil {
			return in.ProjectIDSet(c.P.Cols)
		}
	}
	return relation.NewIDTupleSet(c.P.Arity(), 0)
}

// MasterProjectionHas reports whether the projection of t onto the
// constraint's master-side columns is already present in p(Dm). This is
// the membership probe behind the witness-reuse gate in internal/core:
// a master insert whose projection is already in every affected
// constraint's p(Dm) is extensionally invisible to the constraint.
// Empty-set projections and tuples too short for the projection report
// false.
func (c *Constraint) MasterProjectionHas(dm *relation.Database, t relation.Tuple) bool {
	if c.P.IsEmptySet() {
		return false
	}
	dict := relation.Shared()
	ids := make([]int32, len(c.P.Cols))
	for i, col := range c.P.Cols {
		if col < 0 || col >= len(t) {
			return false
		}
		id, found := dict.ID(t[col])
		if !found {
			return false // a value outside the dictionary is in no p(Dm)
		}
		ids[i] = id
	}
	return c.MasterIDs(dm).Has(ids)
}

// New builds a containment constraint.
func New(name string, q qlang.Query, p Projection) *Constraint {
	c := &Constraint{Name: name, Q: q, P: p}
	c.ind = detectIND(c)
	return c
}

// FromCQ builds a CC with a CQ left-hand side.
func FromCQ(name string, q *cq.CQ, p Projection) *Constraint { return New(name, qlang.FromCQ(q), p) }

// FromUCQ builds a CC with a UCQ left-hand side.
func FromUCQ(name string, q *cq.UCQ, p Projection) *Constraint { return New(name, qlang.FromUCQ(q), p) }

// FromEFO builds a CC with an ∃FO⁺ left-hand side.
func FromEFO(name string, q *cq.EFOQuery, p Projection) *Constraint {
	return New(name, qlang.FromEFO(q), p)
}

// FromFO builds a CC with an FO left-hand side.
func FromFO(name string, q *fo.Query, p Projection) *Constraint { return New(name, qlang.FromFO(q), p) }

// FromFP builds a CC with a datalog left-hand side.
func FromFP(name string, p *datalog.Program, proj Projection) *Constraint {
	return New(name, qlang.FromFP(p), proj)
}

func (c *Constraint) String() string {
	name := c.Name
	if name != "" {
		name += ": "
	}
	if c.Reverse {
		return name + c.P.String() + " ⊆ " + c.Q.String()
	}
	return name + c.Q.String() + " ⊆ " + c.P.String()
}

// Validate checks arity agreement between the two sides.
func (c *Constraint) Validate(dm *relation.Database) error {
	if c.Reverse {
		return c.validateReverse(dm)
	}
	if c.P.IsEmptySet() {
		return nil
	}
	if dm == nil || dm.Schema(c.P.Rel) == nil {
		return fmt.Errorf("cc %s: projection over unknown master relation %s", c.Name, c.P.Rel)
	}
	s := dm.Schema(c.P.Rel)
	for _, col := range c.P.Cols {
		if col < 0 || col >= s.Arity() {
			return fmt.Errorf("cc %s: projection column %d out of range for %s", c.Name, col, c.P.Rel)
		}
	}
	if c.Q.Arity() != c.P.Arity() {
		return fmt.Errorf("cc %s: query arity %d vs projection arity %d", c.Name, c.Q.Arity(), c.P.Arity())
	}
	return nil
}

// Satisfied reports whether (D, Dm) ⊨ c.
func (c *Constraint) Satisfied(d, dm *relation.Database) (bool, error) {
	return c.SatisfiedGate(d, dm, nil)
}

// SatisfiedGate is Satisfied under gate governance: the constraint
// query evaluates through g and the gate's error is returned on
// cancellation or budget exhaustion. A nil gate is free.
func (c *Constraint) SatisfiedGate(d, dm *relation.Database, g *query.Gate) (bool, error) {
	_, viol, err := c.ViolationGate(d, dm, g)
	return !viol, err
}

// Violation returns a witness tuple in q(D) \ p(Dm) when the constraint
// is violated (or in p(Dm) \ q(D) for a reverse constraint).
func (c *Constraint) Violation(d, dm *relation.Database) (relation.Tuple, bool, error) {
	return c.ViolationGate(d, dm, nil)
}

// ViolationGate is Violation under gate governance (see SatisfiedGate).
func (c *Constraint) ViolationGate(d, dm *relation.Database, g *query.Gate) (relation.Tuple, bool, error) {
	if c.Reverse {
		return c.reverseViolation(d, dm, g)
	}
	lhs, absent, err := answerIDs(c.Q, d, g)
	if err != nil {
		return nil, false, err
	}
	if lhs.Len() == 0 && absent == nil {
		return nil, false, nil
	}
	t, viol := leastOutside(lhs, c.MasterIDs(dm))
	if absent != nil && (!viol || absent.Less(t)) {
		t, viol = absent, true
	}
	return t, viol, nil
}

// answerIDs evaluates q over d as id tuples over the shared dictionary.
// The tableau languages run on cq.AnswerIDsGate; FO and FP evaluate
// their own way, and each answer is looked up with Dict.ID. An answer
// holding a value the dictionary lacks is in no p(Dm), whose values are
// all interned: it stays out of the set, and the least such answer is
// returned as absent (nil when there is none).
func answerIDs(q qlang.Query, d *relation.Database, g *query.Gate) (set *relation.IDTupleSet, absent relation.Tuple, err error) {
	if q.Lang().Monotone() {
		set, err = cq.AnswerIDsGate(q.Tableaux(), q.Arity(), d, g)
		return set, nil, err
	}
	ts, err := q.EvalGate(d, g)
	if err != nil {
		return nil, nil, err
	}
	set = relation.NewIDTupleSet(q.Arity(), len(ts))
	dict := relation.Shared()
	ids := make([]int32, q.Arity())
	for _, t := range ts {
		interned := true
		for i, v := range t {
			ids[i], interned = dict.ID(v)
			if !interned {
				break
			}
		}
		switch {
		case interned:
			set.Add(ids)
		case absent == nil:
			absent = t // ts is sorted: the first is the least
		}
	}
	return set, absent, nil
}

// leastOutside returns the least tuple, in tuple order, of a that b
// does not hold; false when b holds all of a.
func leastOutside(a, b *relation.IDTupleSet) (relation.Tuple, bool) {
	vals := relation.Shared().Snapshot()
	best := -1
	for i := 0; i < a.Len(); i++ {
		if !b.Has(a.At(i)) && (best < 0 || lessIDs(vals, a.At(i), a.At(best))) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	ids := a.At(best)
	t := make(relation.Tuple, len(ids))
	for i, id := range ids {
		t[i] = vals[id]
	}
	return t, true
}

// lessIDs is Tuple.Less on two id tuples of one width.
func lessIDs(vals []relation.Value, a, b []int32) bool {
	for i, id := range a {
		if id != b[i] {
			return vals[id] < vals[b[i]]
		}
	}
	return false
}

// SatisfiedDelta reports whether (D ∪ Δ, Dm) ⊨ c, assuming (D, Dm) ⊨ c
// already holds. For monotone constraint languages only the differential
// matches involving Δ are evaluated — over the D/Δ overlay, without ever
// materializing the union; FO and FP fall back to full re-evaluation
// over the union.
func (c *Constraint) SatisfiedDelta(d, delta, dm *relation.Database) (bool, error) {
	return c.SatisfiedDeltaGate(d, delta, dm, nil)
}

// SatisfiedDeltaGate is SatisfiedDelta under gate governance (see
// SatisfiedGate).
func (c *Constraint) SatisfiedDeltaGate(d, delta, dm *relation.Database, g *query.Gate) (bool, error) {
	if c.Reverse {
		// p(Dm) ⊆ q(D) is monotone in D for monotone q: extensions can
		// only add q-answers, so the precondition carries over.
		if c.Q.Lang().Monotone() {
			return true, nil
		}
		return c.satisfiedUnion(d, delta, dm, g)
	}
	if !c.Q.Lang().Monotone() {
		return c.satisfiedUnion(d, delta, dm, g)
	}
	return NewSet(c).SatisfiedDeltaGate(d, delta, dm, g)
}

func (c *Constraint) satisfiedUnion(d, delta, dm *relation.Database, g *query.Gate) (bool, error) {
	return c.SatisfiedGate(d.Union(delta), dm, g)
}

// Set is a set V of containment constraints.
type Set struct {
	Constraints []*Constraint
}

// NewSet builds a constraint set.
func NewSet(cs ...*Constraint) *Set { return &Set{Constraints: cs} }

// Add appends constraints.
func (s *Set) Add(cs ...*Constraint) { s.Constraints = append(s.Constraints, cs...) }

// Len returns the number of constraints.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Constraints)
}

// Satisfied reports whether (D, Dm) ⊨ V.
func (s *Set) Satisfied(d, dm *relation.Database) (bool, error) {
	return s.SatisfiedGate(d, dm, nil)
}

// SatisfiedGate is Satisfied under gate governance: constraint queries
// evaluate through g and the gate's error is returned on cancellation
// or budget exhaustion. A nil gate is free.
func (s *Set) SatisfiedGate(d, dm *relation.Database, g *query.Gate) (bool, error) {
	if s == nil {
		return true, nil
	}
	for _, c := range s.Constraints {
		ok, err := c.SatisfiedGate(d, dm, g)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// FirstViolation returns the first violated constraint and its witness
// tuple, if any.
func (s *Set) FirstViolation(d, dm *relation.Database) (*Constraint, relation.Tuple, bool, error) {
	if s == nil {
		return nil, nil, false, nil
	}
	for _, c := range s.Constraints {
		t, viol, err := c.Violation(d, dm)
		if err != nil {
			return nil, nil, false, err
		}
		if viol {
			return c, t, true, nil
		}
	}
	return nil, nil, false, nil
}

// SatisfiedDelta reports whether (D ∪ Δ, Dm) ⊨ V assuming (D, Dm) ⊨ V.
func (s *Set) SatisfiedDelta(d, delta, dm *relation.Database) (bool, error) {
	return s.SatisfiedDeltaGate(d, delta, dm, nil)
}

// SatisfiedDeltaGate is SatisfiedDelta under gate governance (see
// SatisfiedGate). It is a one-shot DeltaChecker over delta's rows;
// non-monotone constraints are re-evaluated over D ∪ Δ.
func (s *Set) SatisfiedDeltaGate(d, delta, dm *relation.Database, g *query.Gate) (bool, error) {
	dc := s.NewDeltaChecker(d, dm)
	ok, err := dc.satisfied(cq.DeltaRowsOf(delta), delta, g, nil)
	dc.Flush()
	return ok, err
}

// DeltaChecker is Set.SatisfiedDeltaGate prepared for one partially
// closed D and one Dm and run for many deltas, as the decision
// procedures do once per candidate valuation, each given as id rows
// (cq.DeltaRows). Each monotone forward constraint holds one
// cq.DeltaProbe per tableau of its query plus its p(Dm) id set, read
// from the master instance's memo (MasterIDs); both are resolved on
// the constraint's first use. A monotone reverse constraint holds on
// every extension of a D that satisfies it, so it is never evaluated;
// a non-monotone constraint cannot be checked differentially, so
// SatisfiedGate refuses it (RCDP rejects such sets before it
// searches).
//
// D and Dm must not change while the checker is in use — a check holds
// its catalog entry's read lock for its whole run and mutations take
// the write lock. A checker is single-goroutine; Flush charges the
// join counters of its probes to the obs metrics.
type DeltaChecker struct {
	d, dm *relation.Database
	cs    []deltaConstraint
}

// deltaConstraint is one constraint's prepared state in a DeltaChecker.
type deltaConstraint struct {
	c        *Constraint
	fast     bool             // monotone forward constraint: runs on probes
	probes   []*cq.DeltaProbe // nil until first use
	violated bool
	leaf     func(head []int32) bool
}

// NewDeltaChecker prepares SatisfiedDeltaGate over d and dm. Nothing is
// evaluated until the first SatisfiedGate call.
func (s *Set) NewDeltaChecker(d, dm *relation.Database) *DeltaChecker {
	dc := &DeltaChecker{d: d, dm: dm}
	if s != nil {
		dc.cs = make([]deltaConstraint, len(s.Constraints))
		for i, c := range s.Constraints {
			dc.cs[i] = deltaConstraint{c: c, fast: !c.Reverse && c.Q.Lang().Monotone()}
		}
	}
	return dc
}

// SatisfiedGate reports whether (D ∪ Δ, Dm) ⊨ V, assuming (D, Dm) ⊨ V,
// under gate governance (see Set.SatisfiedDeltaGate). Constraints are
// tested in order and the first violated one ends the call. When a
// monotone forward constraint is violated, sup, if non-nil, receives
// the delta rows its violating match read (see cq.Support): every
// delta holding those rows violates the same constraint. sup is left
// empty when V holds.
func (dc *DeltaChecker) SatisfiedGate(delta *cq.DeltaRows, g *query.Gate, sup *cq.Support) (bool, error) {
	return dc.satisfied(delta, nil, g, sup)
}

// satisfied is SatisfiedGate with the Δ database, when the caller has
// one, for the non-monotone constraints (nil refuses them).
func (dc *DeltaChecker) satisfied(delta *cq.DeltaRows, db *relation.Database, g *query.Gate, sup *cq.Support) (bool, error) {
	sup.Reset()
	for i := range dc.cs {
		x := &dc.cs[i]
		if !x.fast {
			if x.c.Reverse && x.c.Q.Lang().Monotone() {
				continue // p(Dm) ⊆ q(D) carries over to every extension
			}
			if db == nil {
				return false, fmt.Errorf("cc %s: a %v constraint has no differential check", x.c.Name, x.c.Q.Lang())
			}
			ok, err := x.c.satisfiedUnion(dc.d, db, dc.dm, g)
			if err != nil || !ok {
				return false, err
			}
			continue
		}
		if x.probes == nil {
			dc.prepare(x)
		}
		for _, p := range x.probes {
			// Heads arrive as interned ids and membership is one
			// integer-hashed set probe — no Binding, HeadTuple or key
			// per differential match.
			x.violated = false
			if err := p.RunSupport(delta, g, x.leaf, sup); err != nil || x.violated {
				return false, err
			}
		}
	}
	return true, nil
}

// prepare builds a monotone forward constraint's probes and reads its
// p(Dm) set.
func (dc *DeltaChecker) prepare(x *deltaConstraint) {
	rhs := x.c.MasterIDs(dc.dm)
	x.leaf = func(head []int32) bool {
		x.violated = !rhs.Has(head)
		return !x.violated
	}
	ts := x.c.Q.Tableaux()
	x.probes = make([]*cq.DeltaProbe, len(ts))
	for j, t := range ts {
		x.probes[j] = t.NewDeltaProbe(dc.d)
	}
}

// Flush charges the join counters accumulated by the checker's probes
// to the obs metrics.
func (dc *DeltaChecker) Flush() {
	for i := range dc.cs {
		for _, p := range dc.cs[i].probes {
			p.Flush()
		}
	}
}

// AllMonotone reports whether every constraint is in a monotone
// language.
func (s *Set) AllMonotone() bool {
	if s == nil {
		return true
	}
	for _, c := range s.Constraints {
		if !c.Q.Lang().Monotone() {
			return false
		}
	}
	return true
}

// AllINDs reports whether every constraint is an inclusion dependency.
func (s *Set) AllINDs() bool {
	if s == nil {
		return true
	}
	for _, c := range s.Constraints {
		if c.ind == nil || c.Reverse {
			return false
		}
	}
	return true
}

// MaxLang returns the most expressive language occurring in the set,
// in the order CQ < UCQ < ∃FO⁺ < FO < FP (FO and FP are both
// "undecidable tier"; FP reported when present).
func (s *Set) MaxLang() qlang.Lang {
	max := qlang.CQ
	if s == nil {
		return max
	}
	for _, c := range s.Constraints {
		if c.Q.Lang() > max {
			max = c.Q.Lang()
		}
	}
	return max
}

// Constants returns the sorted distinct constants occurring in the
// constraint queries.
func (s *Set) Constants() []relation.Value {
	seen := make(map[relation.Value]bool)
	if s != nil {
		for _, c := range s.Constraints {
			for _, v := range c.Q.Constants() {
				seen[v] = true
			}
		}
	}
	return relation.SortedValues(seen)
}

// Validate validates every constraint against the master data.
func (s *Set) Validate(dm *relation.Database) error {
	if s == nil {
		return nil
	}
	names := make(map[string]bool)
	for _, c := range s.Constraints {
		if c.Name != "" {
			if names[c.Name] {
				return fmt.Errorf("cc: duplicate constraint name %s", c.Name)
			}
			names[c.Name] = true
		}
		if err := c.Validate(dm); err != nil {
			return err
		}
	}
	return nil
}

func (s *Set) String() string {
	if s == nil {
		return "{}"
	}
	parts := make([]string, len(s.Constraints))
	for i, c := range s.Constraints {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}
