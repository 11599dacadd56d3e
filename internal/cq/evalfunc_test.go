package cq

import (
	"repro/internal/query"
	"repro/internal/relation"
)

// The binding-level entry points of the join engine. No program code
// needs every binding of a query or a Database delta: answers come
// from AnswerIDsGate and deltas from DeltaProbe. The reference tests
// still compare the engine's full enumeration with the naive
// evaluator binding by binding, so these drivers of the same join code
// live here.

// EvalFuncGate enumerates all satisfying bindings of the tableau over
// d, invoking fn for each; enumeration stops early when fn returns
// false. The binding passed to fn is reused between calls — clone it to
// keep. Each candidate tuple enumerated by the join charges one
// row-step on g, and the first gate error aborts enumeration and is
// returned. A nil gate is free. It runs the plain join without the
// existential cut.
func (t *Tableau) EvalFuncGate(d *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	gs := gate(g)
	es := evalStats{evals: 1}
	st := t.isetup(d, gs, &es)
	st.leaf = st.bindingLeaf(fn)
	if !st.ip.unsat {
		st.run(st.planOrder(), 0)
	}
	es.flush()
	return gs.finish()
}

// EvalFuncDeltaGate enumerates bindings of the tableau over d ∪ delta
// restricted to matches that use at least one delta tuple, with the
// differential join of DeltaProbe.Run (possibly invoking fn more than
// once per binding). fn returning false stops enumeration. Each
// candidate tuple charges one row-step; the first gate error aborts
// enumeration and is returned. A nil gate is free.
func (t *Tableau) EvalFuncDeltaGate(d, delta *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	gs := gate(g)
	es := evalStats{evals: 1}
	st := t.isetup(d, gs, &es)
	st.bindDelta(t, DeltaRowsOf(delta))
	st.leaf = st.bindingLeaf(fn)
	if !st.ip.unsat {
		st.runDeltaAll(len(t.Templates))
	}
	es.flush()
	return gs.finish()
}

// EvalFuncDeltaIDsGate is EvalFuncDeltaGate with fn receiving the head
// tuple as dictionary ids (the slice is reused between calls) instead
// of a materialized Binding. It is a one-shot DeltaProbe.
func (t *Tableau) EvalFuncDeltaIDsGate(d, delta *relation.Database, g *query.Gate, fn func(head []int32) bool) error {
	p := t.NewDeltaProbe(d)
	err := p.Run(DeltaRowsOf(delta), g, fn)
	p.Flush()
	return err
}

// bindingLeaf adapts a Binding-consuming fn to the slot engine: one
// reused map is refreshed from the slots at each leaf. Every slot a
// template binds is bound there; slots of variables no template binds
// (unsafe, unvalidated queries) stay out of the binding.
func (st *ijoin) bindingLeaf(fn func(query.Binding) bool) func() bool {
	slots := st.ip.vars.Slots
	b := make(query.Binding, len(slots))
	vals := relation.Shared().Snapshot() // the join interns nothing
	return func() bool {
		for s, sl := range slots {
			if id := st.slots[s]; id >= 0 {
				b[sl.Name] = vals[id]
			}
		}
		return fn(b)
	}
}
