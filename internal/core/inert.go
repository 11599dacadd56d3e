package core

import (
	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/relation"
)

// Inert-position analysis. A (relation, column) position is inert with
// respect to a constraint set V when no CC query can distinguish values
// at that position: every atom over the relation in every constraint
// tableau carries, at that column, a variable that occurs exactly once
// in the whole tableau and appears neither in the tableau's head nor in
// its inequality conditions. The value a candidate extension places at
// an inert position can then be swapped for a dedicated fresh value
// without changing (a) whether any CC match exists or (b) any CC match
// head — so a search variable all of whose occurrences are inert (and
// which is itself outside the query tableau's head and inequalities)
// can be pinned to one fresh value. This collapse is exact: it shrinks
// the Adom valuation space of Proposition 3.3 without changing the
// existence of counterexamples.

// inertPositions computes the map rel → column → non-inert (true means
// the column is *constrained*; absent means inert).
func inertPositions(v *cc.Set) map[string]map[int]bool {
	constrained := make(map[string]map[int]bool)
	mark := func(rel string, col int) {
		m := constrained[rel]
		if m == nil {
			m = make(map[int]bool)
			constrained[rel] = m
		}
		m[col] = true
	}
	if v == nil {
		return constrained
	}
	for _, c := range v.Constraints {
		for _, t := range c.Q.Tableaux() {
			for _, tpl := range t.Templates {
				for col, a := range tpl.Args {
					if !a.IsVar {
						mark(tpl.Rel, col)
					}
				}
			}
			for _, sl := range t.VarTable().Slots {
				if len(sl.Pos) > 1 || sl.Head || sl.Neq {
					for _, p := range sl.Pos {
						mark(p.Rel, p.Col)
					}
				}
			}
		}
	}
	return constrained
}

// collapsibleVars returns the query-tableau slots that can be pinned to
// dedicated fresh values, in slot order: variables outside the
// tableau's head and inequality conditions whose every template
// occurrence is at an inert position of V. Only variables with an
// infinite admissible domain are collapsed (finite-domain variables are
// already cheap and their domains may exclude fresh values).
func collapsibleVars(slots []cq.Slot, constrained map[string]map[int]bool, doms []relation.Domain) []int {
	var out []int
next:
	for i, sl := range slots {
		if len(sl.Pos) == 0 || sl.Head || sl.Neq || doms[i].Kind != relation.Infinite {
			continue
		}
		for _, p := range sl.Pos {
			if constrained[p.Rel][p.Col] {
				continue next
			}
		}
		out = append(out, i)
	}
	return out
}
