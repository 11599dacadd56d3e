package cq

import (
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// naiveBindings is the engine-independent reference evaluator for CQs:
// a nested loop over each atom's full Instance.Tuples() scan, in atom
// order, with no planner, no index and no compiled plan. It works on
// the query itself rather than its tableau, so it also re-checks the
// equality folding of BuildTableau. Every binding that matches all
// atoms and satisfies every condition is passed to fn, over all
// variables of q; variables occurring only in conditions are bound by
// propagating the equalities. The base database is d; when delta is
// non-nil each atom reads d and then delta, and inDelta reports per
// atom whether its matched tuple came from delta.
func naiveBindings(q *CQ, d, delta *relation.Database, fn func(b query.Binding, inDelta []bool)) {
	b := query.Binding{}
	inDelta := make([]bool, len(q.Atoms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			if full, ok := closeBinding(q, b); ok {
				fn(full, inDelta)
			}
			return
		}
		a := q.Atoms[i]
		for src, db := range []*relation.Database{d, delta} {
			if db == nil || db.Instance(a.Rel) == nil {
				continue
			}
			for _, tup := range db.Instance(a.Rel).Tuples() {
				if len(tup) != len(a.Args) {
					continue
				}
				added, ok := []string(nil), true
				for j, arg := range a.Args {
					switch v, bound := b[arg.Name]; {
					case !arg.IsVar:
						ok = arg.Val == tup[j]
					case bound:
						ok = v == tup[j]
					default:
						b[arg.Name] = tup[j]
						added = append(added, arg.Name)
					}
					if !ok {
						break
					}
				}
				if ok {
					inDelta[i] = src == 1
					rec(i + 1)
				}
				for _, name := range added {
					delete(b, name)
				}
			}
		}
	}
	rec(0)
}

// closeBinding extends an atom binding with the variables the
// equalities determine and checks every condition; ok is false when a
// condition fails or mentions a variable that stays unbound.
func closeBinding(q *CQ, b query.Binding) (query.Binding, bool) {
	full := b.Clone()
	for changed := true; changed; {
		changed = false
		for _, c := range q.Conds {
			if c.Neg {
				continue
			}
			l, lok := full.Resolve(c.L)
			r, rok := full.Resolve(c.R)
			switch {
			case lok && !rok:
				full[c.R.Name], changed = l, true
			case rok && !lok:
				full[c.L.Name], changed = r, true
			}
		}
	}
	for _, c := range q.Conds {
		if holds, known := c.Holds(full); !known || !holds {
			return nil, false
		}
	}
	return full, true
}

// bindingKey serializes a binding restricted to vars, in vars order.
func bindingKey(vars []string, b query.Binding) string {
	var sb strings.Builder
	for _, name := range vars {
		sb.WriteString("|")
		if v, ok := b[name]; ok {
			sb.WriteString(string(v))
		} else {
			sb.WriteString("?")
		}
	}
	return sb.String()
}
