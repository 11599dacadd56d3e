package cq

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/relation"
)

// UCQ is a union of conjunctive queries Q₁ ∪ … ∪ Q_k. All disjuncts
// must have the same arity.
type UCQ struct {
	Name      string
	Disjuncts []*CQ

	// memoized Tableaux; UCQ values must not be copied after first
	// evaluation (Union/FromCQ/Clone all build fresh structs).
	tabOnce sync.Once
	tabs    []*Tableau
}

// Union builds a UCQ from disjuncts.
func Union(name string, disjuncts ...*CQ) *UCQ {
	if name == "" {
		name = "Q"
	}
	return &UCQ{Name: name, Disjuncts: disjuncts}
}

// FromCQ wraps a single CQ as a UCQ; used to run the UCQ machinery
// uniformly on plain conjunctive queries.
func FromCQ(q *CQ) *UCQ { return &UCQ{Name: q.Name, Disjuncts: []*CQ{q}} }

// Arity returns the common output arity of the disjuncts.
func (u *UCQ) Arity() int {
	if len(u.Disjuncts) == 0 {
		return 0
	}
	return u.Disjuncts[0].Arity()
}

// Validate checks every disjunct and arity agreement.
func (u *UCQ) Validate(schemas map[string]*relation.Schema) error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("ucq %s: no disjuncts", u.Name)
	}
	ar := u.Disjuncts[0].Arity()
	for i, q := range u.Disjuncts {
		if q.Arity() != ar {
			return fmt.Errorf("ucq %s: disjunct %d has arity %d, want %d", u.Name, i, q.Arity(), ar)
		}
		if err := q.Validate(schemas); err != nil {
			return err
		}
	}
	return nil
}

// Eval evaluates the union over the database.
func (u *UCQ) Eval(d *relation.Database) []relation.Tuple {
	out, _ := u.EvalGate(d, nil)
	return out
}

// EvalGate evaluates the union under gate governance (see CQ.EvalGate):
// one answer set over the disjunct tableaux, materialized and sorted.
func (u *UCQ) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	return evalGate(u.Tableaux(), u.Arity(), d, g)
}

// EvalBool evaluates a Boolean union.
func (u *UCQ) EvalBool(d *relation.Database) bool { return len(u.Eval(d)) > 0 }

// Constants returns all constants occurring in any disjunct.
func (u *UCQ) Constants() []relation.Value {
	var cs []relation.Value
	for _, q := range u.Disjuncts {
		cs = append(cs, q.Constants()...)
	}
	return cs
}

// Clone deep-copies the union.
func (u *UCQ) Clone() *UCQ {
	cp := &UCQ{Name: u.Name}
	for _, q := range u.Disjuncts {
		cp.Disjuncts = append(cp.Disjuncts, q.Clone())
	}
	return cp
}

func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}

// Tableaux returns the tableau of every satisfiable disjunct, silently
// dropping unsatisfiable ones (they contribute nothing to any answer).
// Disjunct tableaux come from the per-CQ compiled cache and the list
// itself is memoized, so repeated calls build nothing.
func (u *UCQ) Tableaux() []*Tableau {
	u.tabOnce.Do(func() {
		for _, q := range u.Disjuncts {
			t, err := q.Compiled()
			if err != nil {
				continue
			}
			u.tabs = append(u.tabs, t)
		}
	})
	return u.tabs
}
