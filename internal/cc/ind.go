package cc

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// INDShape describes an inclusion dependency π_X(R) ⊆ p(Rm): a CC whose
// left-hand side is itself a projection query over a single relation
// (Section 2.1: "a CC q_v(R) ⊆ p(Rm) is an inclusion dependency (IND)
// when q_v is also a projection query").
type INDShape struct {
	Rel  string // database relation R
	Cols []int  // projected column positions X, in head order
}

func (s *INDShape) String() string {
	return Projection{Rel: s.Rel, Cols: s.Cols}.String()
}

// NewIND builds an IND constraint π_cols(rel) ⊆ p.
func NewIND(name, rel string, cols []int, arity int, p Projection) *Constraint {
	args := make([]query.Term, arity)
	for i := range args {
		args[i] = query.Var(fmt.Sprintf("x%d", i+1))
	}
	head := make([]query.Term, len(cols))
	for i, c := range cols {
		head[i] = args[c]
	}
	q := cq.New(name, head, []query.RelAtom{{Rel: rel, Args: args}})
	return New(name, qlang.FromCQ(q), p)
}

// IND returns the constraint's IND shape, if it has one.
func (c *Constraint) IND() (*INDShape, bool) {
	if c.ind == nil {
		return nil, false
	}
	return c.ind, true
}

// detectIND recognizes constraints whose left-hand side is a projection
// query: a single satisfiable CQ disjunct with one relation atom, no
// remaining inequalities, all-argument distinct variables, and a head
// consisting of argument variables.
func detectIND(c *Constraint) *INDShape {
	if c.Q == nil || c.Reverse || !c.Q.Lang().Monotone() {
		return nil
	}
	ts := c.Q.Tableaux()
	if len(ts) != 1 {
		return nil
	}
	t := ts[0]
	if len(t.Templates) != 1 || len(t.Diseqs) != 0 {
		return nil
	}
	atom := t.Templates[0]
	for _, a := range atom.Args {
		if !a.IsVar {
			return nil
		}
	}
	vt := t.VarTable()
	for _, sl := range vt.Slots {
		if len(sl.Pos) > 1 {
			return nil // repeated variable = selection, not a projection
		}
	}
	cols := make([]int, len(vt.Head))
	for i, sl := range vt.Head {
		if sl < 0 || len(vt.Slots[sl].Pos) == 0 {
			return nil
		}
		cols[i] = vt.Slots[sl].Pos[0].Col
	}
	return &INDShape{Rel: atom.Rel, Cols: cols}
}

// BoundedColumns returns, for every database relation, the set of column
// positions covered by some IND of the set — the positions whose values
// are bounded by master data. Used by the syntactic E4 test of
// Proposition 4.3. The second result is false when the set contains a
// non-IND constraint (the syntactic test then does not apply).
func (s *Set) BoundedColumns() (map[string]map[int]bool, bool) {
	out := make(map[string]map[int]bool)
	if s == nil {
		return out, true
	}
	for _, c := range s.Constraints {
		shape, ok := c.IND()
		if !ok {
			return nil, false
		}
		if c.P.IsEmptySet() {
			// π_X(R) ⊆ ∅ forbids any R tuple at all; it does not bound
			// columns, so it contributes nothing here (the valuation
			// test handles it).
			continue
		}
		m := out[shape.Rel]
		if m == nil {
			m = make(map[int]bool)
			out[shape.Rel] = m
		}
		for _, col := range shape.Cols {
			m[col] = true
		}
	}
	return out, true
}

// INDValueBound returns, for a relation column, the sorted values
// permitted by the intersection of all INDs of the set covering that
// column, with found reporting whether any IND covers it. These are the
// only values an extension tuple may take in that column while staying
// partially closed. Each IND's values are read from its memoized p(Dm).
func (s *Set) INDValueBound(dm *relation.Database, rel string, col int) (vals []relation.Value, found bool) {
	if s == nil {
		return nil, false
	}
	var bound []int32 // ascending ids
	for _, c := range s.Constraints {
		shape, ok := c.IND()
		if !ok || shape.Rel != rel {
			continue
		}
		for hi, sc := range shape.Cols {
			if sc != col {
				continue
			}
			ids := distinctAt(c.MasterIDs(dm), hi)
			if !found {
				bound, found = ids, true
				continue
			}
			bound = slices.DeleteFunc(bound, func(id int32) bool {
				_, in := slices.BinarySearch(ids, id)
				return !in
			})
		}
	}
	if !found {
		return nil, false
	}
	vals = relation.Shared().Values(bound)
	slices.Sort(vals)
	return vals, true
}

// distinctAt returns the distinct ids at position i of the set's
// tuples, ascending.
func distinctAt(set *relation.IDTupleSet, i int) []int32 {
	out := make([]int32, set.Len())
	for k := range out {
		out[k] = set.At(k)[i]
	}
	slices.Sort(out)
	return slices.Compact(out)
}
