package core

import (
	"context"
	"fmt"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file implements the "guidance" side of the paper (Section 2.3):
// once RCQP says a relatively complete database exists, construct one,
// and given an incomplete database, extend it until it is complete.

// completeDatabaseINDs constructs a database complete for Q relative
// to (Dm, V) when V is a set of INDs and Q is bounded (Proposition
// 4.3's constructive direction): for every achievable combination of
// head values — drawn from the IND value bounds and finite domains — it
// adds one instantiation μ(T_i) realizing that answer, so that no
// partially closed extension can produce a new answer. maxAnswers caps
// the instantiations per disjunct; nil is returned (without error) when
// the witness would exceed the cap.
//
// The construction runs on the valuation search under governance: each
// disjunct's valuations are enumerated in slot order with the IND
// pruner (the keyed-task search run in key order), every node polls the
// gate, and budget (when positive) caps the complete valuations per
// disjunct, like Budget.MaxValuations — exhausting it returns
// ErrBudgetExceeded. It also returns the complete valuations inspected,
// without the one the budget refused.
//
// The pruner tests every template with variables against the INDs of
// its relation as soon as it is ground, which for all-IND V is exactly
// (μ(T), Dm) ⊨ V; the variable-free templates are tested once, up
// front. So each complete valuation the search reaches is added as is,
// and the IND-violating part of the candidate product is cut at the
// template that violates, not enumerated.
func completeDatabaseINDs(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, maxAnswers, budget int, gate *query.Gate) (*relation.Database, int, error) {
	if !v.AllINDs() {
		return nil, 0, fmt.Errorf("core: completeDatabaseINDs requires IND constraints")
	}
	if maxAnswers <= 0 {
		maxAnswers = 4096
	}
	out := emptyDatabase(schemas)
	tableaux := q.Tableaux()
	u := NewUniverse(nil, dm, q, v, tableauVarCount(tableaux))
	visited := 0

	for _, t := range tableaux {
		doms, ok := t.AsCQ().VarDomains(schemas)
		if !ok {
			continue
		}
		occ := allVarOccurrences(t)
		// Candidate values per variable.
		cand := make(map[string][]relation.Value, len(t.Vars))
		freshIdx := 0
		for _, vn := range t.Vars {
			vals, covered, err := candidateValues(u, v, dm, vn, doms[vn], occ[vn])
			if err != nil {
				return nil, visited, err
			}
			if !covered && doms[vn].Kind != relation.Finite {
				// Unconstrained infinite variable: head variables of a
				// bounded disjunct never land here; body variables get
				// one fresh value each (they stand for arbitrary data).
				if freshIdx >= len(u.Fresh) {
					return nil, visited, fmt.Errorf("core: fresh pool exhausted")
				}
				vals = []relation.Value{u.Fresh[freshIdx]}
				freshIdx++
			}
			cand[vn] = vals
		}
		if ok, err := groundTemplatesSatisfy(t, schemas, v, dm, gate); err != nil {
			return nil, visited, err
		} else if !ok {
			continue // no valuation can satisfy V
		}
		search, ok := newValuationSearch(u, t, schemas, searchConfig{v: v, dm: dm, fixed: cand, gate: gate})
		if !ok {
			continue
		}
		// Head variables must be fully covered for the construction to
		// stay finite; a blocked disjunct (no valid valuation satisfies
		// V) contributes nothing.
		added := 0
		overCap, bud, err := search.inOrder(budget, func(_ *searchWorker, slots []int32) (any, error) {
			if added == maxAnswers {
				return true, nil // claim: the witness exceeds the cap
			}
			added++
			return nil, search.tpls.AddInto(out, slots)
		})
		visited += bud.inspected()
		if err != nil {
			return nil, visited, err
		}
		if overCap != nil {
			return nil, visited, nil // caller treats as "not constructed"
		}
	}
	if ok, err := v.SatisfiedGate(out, dm, gate); err != nil {
		return nil, visited, err
	} else if !ok {
		// Joint interaction between added fragments (possible only with
		// multi-column INDs whose per-tuple checks passed but whose
		// union re-projects; INDs check per tuple, so this cannot
		// happen — defensive).
		return nil, visited, fmt.Errorf("core: constructed witness violates V")
	}
	return out, visited, nil
}

// groundTemplatesSatisfy reports whether the variable-free templates of
// t satisfy V on their own; the IND pruner never sees them.
func groundTemplatesSatisfy(t *cq.Tableau, schemas map[string]*relation.Schema, v *cc.Set, dm *relation.Database, gate *query.Gate) (bool, error) {
	frag := emptyDatabase(schemas)
	for _, tpl := range t.Templates {
		if tup, ok := tpl.Ground(query.Binding{}); ok {
			if err := frag.Add(tpl.Rel, tup); err != nil {
				return false, err
			}
		}
	}
	return v.SatisfiedGate(frag, dm, gate)
}

// allVarOccurrences maps every variable of the tableau to the
// (relation, column) positions at which it occurs.
func allVarOccurrences(t *cq.Tableau) map[string][]varPosition {
	out := make(map[string][]varPosition)
	for _, tpl := range t.Templates {
		for col, arg := range tpl.Args {
			if arg.IsVar {
				out[arg.Name] = append(out[arg.Name], varPosition{Rel: tpl.Rel, Col: col})
			}
		}
	}
	return out
}

// candidateValues computes the admissible value set of a variable under
// the IND bounds of V: the intersection of the per-column value bounds
// at every covered position the variable occupies, further intersected
// with its finite domain when applicable. covered reports whether any
// position is IND-covered.
func candidateValues(u *Universe, v *cc.Set, dm *relation.Database, name string, dom relation.Domain, occ []varPosition) ([]relation.Value, bool, error) {
	var sets [][]relation.Value
	covered := false
	for _, p := range occ {
		if vals, found := v.INDValueBound(dm, p.Rel, p.Col); found {
			covered = true
			sets = append(sets, vals)
		}
	}
	if dom.Kind == relation.Finite {
		sets = append(sets, dom.Values)
	}
	if len(sets) == 0 {
		return nil, covered, nil
	}
	cur := sets[0]
	for _, s := range sets[1:] {
		in := make(map[relation.Value]bool, len(s))
		for _, x := range s {
			in[x] = true
		}
		var next []relation.Value
		for _, x := range cur {
			if in[x] {
				next = append(next, x)
			}
		}
		cur = next
	}
	return cur, covered, nil
}

// MakeComplete extends an incomplete database D until it is complete
// for Q relative to (Dm, V), by repeatedly adding the counterexample
// extension produced by RCDPCtx (the "what data should be collected"
// guidance of Section 2.3(2)). Each round adds at least one new answer
// to Q(D), so the loop terminates whenever Q admits a relatively
// complete extension of D; maxRounds caps divergence for queries that
// do not (RCQP = no).
func MakeComplete(q qlang.Query, d, dm *relation.Database, v *cc.Set, maxRounds int) (*relation.Database, int, error) {
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	cur := d.Clone()
	for round := 0; round < maxRounds; round++ {
		r, err := RCDPCtx(context.Background(), q, cur, dm, v)
		if err != nil {
			return nil, round, err
		}
		switch r.Verdict {
		case VerdictComplete:
			return cur, round, nil
		case VerdictUnknown:
			return nil, round, fmt.Errorf("core: RCDP check stopped (%v) in round %d", r.Reason, round)
		}
		cur.UnionInto(r.Extension)
	}
	return nil, maxRounds, fmt.Errorf("core: not complete after %d rounds (query may not be relatively complete)", maxRounds)
}
