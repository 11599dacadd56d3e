package core

import (
	"math"
	"slices"

	"repro/internal/cq"
)

// Nogoods of the RCDP walk.
//
// V is monotone, so when the witness test rejects a complete valuation
// μ because (D ∪ μ(T), Dm) violates a constraint, the violating match
// reads some rows R ⊆ μ(T) besides D, and every valuation μ' with
// R ⊆ μ'(T) violates V through the same match. The differential probe
// reports R with each column classified (cq.ColKind); refute maps each
// row back to the query template that grounds to it and reads which
// slots the match needs:
//
//   - the relevant columns need their values, so with L the deepest
//     slot they read, every valuation that agrees with μ on slots 0..L
//     is rejected, and the walk unwinds to slot L's loop;
//   - existential singletons need nothing;
//   - when the deepest slot S read at all is read only through
//     inequality-only columns, a value v at S keeps the match as long as
//     v avoids every value those inequalities compared slot S with, so
//     every value at S outside that set is rejected too, and slot S's
//     loop keeps only the values of the set.
//
// Only rejected valuations are skipped, and the slot order does not
// change, so the walk reaches the same first witness; per task, so the
// keyed-task race of parallel.go picks the same winner at every worker
// count. RCDP walks alone record support: degree counts every
// valuation, RCQP's E3/E4 search tests other conditions and the naive
// engine is the unpruned ablation.

// noJump is searchWorker.jump when no nogood is unwinding the walk.
const noJump = math.MaxInt

// slotKeep restricts one slot's remaining candidates, for the current
// values of the slots before it, to ids.
type slotKeep struct {
	on  bool
	ids []int32
}

// refute turns the support of the complete valuation the witness test
// just rejected (see cq.Support) into the walk's nogood: the slot to
// unwind to and, when that slot is read only through inequality-only
// columns, the values its loop keeps. An empty support — a rejection
// that no monotone forward constraint's match explains — gives none.
func (w *searchWorker) refute(sup *cq.Support) {
	if sup.Len() == 0 {
		return
	}
	s := w.s
	rel, ineq := -1, -1
	w.pick = w.pick[:0]
	for i := 0; i < sup.Len(); i++ {
		k, kr, ki := s.producer(sup.Row(i), w.slots)
		if k < 0 {
			return
		}
		w.pick = append(w.pick, k)
		rel, ineq = max(rel, kr), max(ineq, ki)
	}
	if ineq <= rel {
		w.jump = rel
		if rel < len(w.slots)-1 {
			w.jumps++
		}
		return
	}
	// Slot ineq is read only through inequality-only columns: gather
	// the values they were compared with.
	w.cmp = w.cmp[:0]
	for i, k := range w.pick {
		r := sup.Row(i)
		_, args := s.tpls.Template(k)
		for c, op := range args {
			if int(op) == ineq && r.Kinds[c] == cq.ColIneqOnly {
				w.cmp = append(w.cmp, r.Compared(c)...)
			}
		}
	}
	if w.keep == nil {
		w.keep = make([]slotKeep, len(w.slots))
	}
	kp := &w.keep[ineq]
	if kp.on {
		// An earlier nogood of this loop already restricted the slot:
		// only values both allow remain.
		kp.ids = slices.DeleteFunc(kp.ids, func(id int32) bool { return !slices.Contains(w.cmp, id) })
	} else {
		kp.on, kp.ids = true, append(kp.ids[:0], w.cmp...)
	}
	w.jump = ineq
	w.jumps++
}

// producer returns the template that grounds to row r under slots,
// choosing the one whose columns read the shallowest slots, with the
// deepest slots its relevant and its inequality-only columns read (−1
// for none); k is −1 when no template grounds to r.
func (s *valuationSearch) producer(r *cq.SupportRow, slots []int32) (k, rel, ineq int) {
	k, rel, ineq = -1, -1, -1
	for t := 0; t < s.tpls.Len(); t++ {
		name, args := s.tpls.Template(t)
		if name != r.Rel || len(args) != len(r.IDs) {
			continue
		}
		tr, ti, ok := -1, -1, true
		for c, op := range args {
			if operandID(op, slots) != r.IDs[c] {
				ok = false
				break
			}
			if op < 0 {
				continue
			}
			switch r.Kinds[c] {
			case cq.ColRelevant:
				tr = max(tr, int(op))
			case cq.ColIneqOnly:
				ti = max(ti, int(op))
			}
		}
		if !ok {
			continue
		}
		if deep, best := max(tr, ti), max(rel, ineq); k < 0 || deep < best || deep == best && tr < rel {
			k, rel, ineq = t, tr, ti
		}
	}
	return k, rel, ineq
}
