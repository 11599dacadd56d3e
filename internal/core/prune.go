package core

import (
	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// indPruner prunes partial valuations template-by-template: as soon as
// a tuple template of the tableau becomes fully ground, every IND of V
// over its relation is checked on that single tuple (INDs are per-tuple
// conditions, so a violated template can never be repaired by later
// assignments). Non-IND constraints are ignored here — they are checked
// exactly on complete valuations by the caller — so pruning is always
// sound and, for all-IND V, also complete per-template.
//
// The slot order is fixed, so a template becomes ground exactly when
// its last slot is bound: the pruner is compiled once per (template,
// IND) into the projected operands of that check, filed under that
// slot, and probes the master instance's id-tuple p(Dm) memo with no
// backtracking state of its own. It is read-only after newINDPruner
// and shared by every worker of a parallel search.
type indPruner struct {
	at [][]indProbe // by slot
}

// indProbe is one IND π_X(R) ⊆ p(Dm) applied to one template over R.
type indProbe struct {
	ops     []int32              // the template's operands at X (see slotDiseq)
	allowed *relation.IDTupleSet // p(Dm); empty for ⊆ ∅
}

// newINDPruner compiles the pruner for the tableau under the slot
// numbering slotOf; operand resolves a template term. It returns nil
// when no IND of V applies to a template with variables (pruning would
// be a no-op).
func newINDPruner(t *cq.Tableau, slotOf map[string]int, operand func(query.Term) int32, v *cc.Set, dm *relation.Database) *indPruner {
	type indCheck struct {
		cols    []int
		allowed *relation.IDTupleSet
	}
	byRel := make(map[string][]indCheck)
	for _, c := range v.Constraints {
		if shape, ok := c.IND(); ok {
			byRel[shape.Rel] = append(byRel[shape.Rel], indCheck{cols: shape.Cols, allowed: c.MasterIDs(dm)})
		}
	}
	p := &indPruner{at: make([][]indProbe, len(slotOf))}
	relevant := false
	for _, tpl := range t.Templates {
		last := -1
		for _, a := range tpl.Args {
			if a.IsVar {
				last = max(last, slotOf[a.Name])
			}
		}
		if last < 0 {
			continue // ground from the start: never checked
		}
		for _, chk := range byRel[tpl.Rel] {
			ops := make([]int32, len(chk.cols))
			for k, col := range chk.cols {
				ops[k] = operand(tpl.Args[col])
			}
			p.at[last] = append(p.at[last], indProbe{ops: ops, allowed: chk.allowed})
			relevant = true
		}
	}
	if !relevant {
		return nil
	}
	return p
}

// admit checks the templates that slot i just made ground against
// their INDs, on the worker's slot array.
func (p *indPruner) admit(w *searchWorker, i int) bool {
	for k := range p.at[i] {
		pr := &p.at[i][k]
		w.ids = w.ids[:0]
		for _, op := range pr.ops {
			w.ids = append(w.ids, operandID(op, w.slots))
		}
		if !pr.allowed.Has(w.ids) {
			return false
		}
	}
	return true
}
