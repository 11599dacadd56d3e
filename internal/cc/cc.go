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
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/fo"
	"repro/internal/obs"
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

// Eval returns the projected tuple set over the master data, keyed for
// membership tests.
func (p Projection) Eval(dm *relation.Database) map[string]bool {
	out := make(map[string]bool)
	if p.IsEmptySet() || dm == nil {
		return out
	}
	in := dm.Instance(p.Rel)
	if in == nil {
		return out
	}
	for _, t := range in.Project(p.Cols) {
		out[t.Key()] = true
	}
	return out
}

// Values returns the sorted distinct values occurring in the projected
// columns of the master data.
func (p Projection) Values(dm *relation.Database) []relation.Value {
	seen := make(map[relation.Value]bool)
	if !p.IsEmptySet() && dm != nil {
		if in := dm.Instance(p.Rel); in != nil {
			for _, t := range in.Project(p.Cols) {
				for _, v := range t {
					seen[v] = true
				}
			}
		}
	}
	return relation.SortedValues(seen)
}

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

	// pcache memoizes the master-side projection p(Dm). Dm is immutable
	// during a Checker run, so the same set is recomputed thousands of
	// times otherwise; the cache keys on the projected instance's
	// identity and generation, so out-of-band mutation invalidates it.
	pcache atomic.Pointer[projCache]
}

// projCache is one memoized master-side projection; see masterSide.
type projCache struct {
	inst *relation.Instance
	gen  uint64
	rhs  map[string]bool
	// rhsIDs keys the same set on fixed-width interned id-keys over the
	// shared dictionary, for the integer delta path.
	rhsIDs map[string]bool
}

// masterCache returns the memoized p(Dm) forms, keyed per (instance,
// generation). Stores race benignly under concurrent checkers: every
// store for one key holds the same set, and a lost overwrite merely
// recomputes later.
func (c *Constraint) masterCache(dm *relation.Database) *projCache {
	var in *relation.Instance
	if !c.P.IsEmptySet() && dm != nil {
		in = dm.Instance(c.P.Rel)
	}
	var gen uint64
	if in != nil {
		gen = in.Generation()
	}
	if p := c.pcache.Load(); p != nil && p.inst == in && p.gen == gen {
		obs.PDmHits.Inc()
		return p
	}
	obs.PDmMisses.Inc()
	if obs.Tracing() {
		obs.Emit("pdm_build", map[string]any{"constraint": c.Name, "rel": c.P.Rel})
	}
	pc := &projCache{inst: in, gen: gen, rhs: c.P.Eval(dm)}
	if in == nil {
		// Empty or absent master side: the id form is the empty set.
		pc.rhsIDs = map[string]bool{}
	} else {
		pc.rhsIDs = in.ProjectIDSet(c.P.Cols)
	}
	c.pcache.Store(pc)
	return pc
}

// masterSide returns p(Dm) keyed on Tuple.Key (see masterCache).
func (c *Constraint) masterSide(dm *relation.Database) map[string]bool {
	return c.masterCache(dm).rhs
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
	lhs, err := c.Q.EvalGate(d, g)
	if err != nil {
		return nil, false, err
	}
	if len(lhs) == 0 {
		return nil, false, nil
	}
	rhs := c.masterSide(dm)
	for _, t := range lhs {
		if !rhs[t.Key()] {
			return t, true, nil
		}
	}
	return nil, false, nil
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
	pc := c.masterCache(dm)
	var kb []byte
	for _, t := range c.Q.Tableaux() {
		// Heads arrive as interned ids and membership is one
		// fixed-width key probe — no Binding, HeadTuple or string Key
		// per differential match.
		violated := false
		err := t.EvalFuncDeltaIDsGate(d, delta, g, func(head []int32) bool {
			kb = relation.AppendIDKey(kb[:0], head)
			violated = !pc.rhsIDs[string(kb)]
			return !violated
		})
		if err != nil || violated {
			return false, err
		}
	}
	return true, nil
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
// SatisfiedGate).
func (s *Set) SatisfiedDeltaGate(d, delta, dm *relation.Database, g *query.Gate) (bool, error) {
	if s == nil {
		return true, nil
	}
	for _, c := range s.Constraints {
		ok, err := c.SatisfiedDeltaGate(d, delta, dm, g)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
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
