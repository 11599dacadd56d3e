package cc

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// Reverse containment constraints — the Section 5 "future work"
// extension of Fan & Geerts: constraints "not only from databases to
// master data, but also from the master data to the databases", i.e.
// p(Dm) ⊆ q(D). A reverse constraint makes master data a *lower* bound:
// every master fact in the projection must be derivable from D.
//
// Reverse constraints interact cleanly with the decision procedures
// because q is monotone in D: once a database satisfies p(Dm) ⊆ q(D),
// every extension does too, so the RCDP counterexample search is
// unchanged — only the partial-closure precondition and the RCQP
// witness checks gain the extra test. The package encodes a reverse
// constraint as a Constraint with the Reverse flag set; Satisfied,
// Violation and SatisfiedDelta dispatch on it.

// NewReverse builds the reverse containment constraint p(Dm) ⊆ q(D).
func NewReverse(name string, p Projection, q qlang.Query) *Constraint {
	if p.IsEmptySet() {
		// ∅ ⊆ q(D) holds vacuously; allowed but useless.
		return &Constraint{Name: name, Q: q, P: p, Reverse: true}
	}
	return &Constraint{Name: name, Q: q, P: p, Reverse: true}
}

// ReverseFromCQ is NewReverse with a CQ right-hand side.
func ReverseFromCQ(name string, p Projection, q *cq.CQ) *Constraint {
	return NewReverse(name, p, qlang.FromCQ(q))
}

// reverseViolation returns a witness tuple in p(Dm) \ q(D).
func (c *Constraint) reverseViolation(d, dm *relation.Database, g *query.Gate) (relation.Tuple, bool, error) {
	if c.P.IsEmptySet() || dm == nil {
		return nil, false, nil
	}
	if dm.Instance(c.P.Rel) == nil {
		return nil, false, nil
	}
	have, _, err := answerIDs(c.Q, d, g)
	if err != nil {
		return nil, false, err
	}
	t, viol := leastOutside(c.MasterIDs(dm), have)
	return t, viol, nil
}

// validateReverse checks arity agreement for a reverse constraint.
func (c *Constraint) validateReverse(dm *relation.Database) error {
	if c.P.IsEmptySet() {
		return nil
	}
	if dm == nil || dm.Schema(c.P.Rel) == nil {
		return fmt.Errorf("cc %s: reverse constraint over unknown master relation %s", c.Name, c.P.Rel)
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
