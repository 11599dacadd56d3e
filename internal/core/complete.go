package core

import (
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

// CompleteDatabaseINDs constructs a database complete for Q relative to
// (Dm, V) when V is a set of INDs and Q is bounded (Proposition 4.3's
// constructive direction): for every achievable combination of head
// values — drawn from the IND value bounds and finite domains — it adds
// one instantiation μ(T_i) realizing that answer, so that no partially
// closed extension can produce a new answer. maxAnswers caps the head
// combinations; nil is returned (without error) when the witness would
// exceed the cap.
func CompleteDatabaseINDs(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, maxAnswers int) (*relation.Database, error) {
	return completeDatabaseINDs(q, dm, v, schemas, maxAnswers, nil)
}

// completeDatabaseINDs is CompleteDatabaseINDs under gate governance:
// every node of the candidate enumeration polls the gate and the
// constraint checks evaluate through it, so a cancelled, expired or
// exhausted check stops the construction with the gate's error. The
// recursion counts only successful additions, so without the gate a
// disjunct with few valid head combinations would enumerate the whole
// candidate product unchecked. A nil gate is free.
func completeDatabaseINDs(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, maxAnswers int, gate *query.Gate) (*relation.Database, error) {
	if !v.AllINDs() {
		return nil, fmt.Errorf("core: CompleteDatabaseINDs requires IND constraints")
	}
	if maxAnswers <= 0 {
		maxAnswers = 4096
	}
	out := emptyDatabase(schemas)
	tableaux := q.Tableaux()
	u := NewUniverse(nil, dm, q, v, tableauVarCount(tableaux))

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
				return nil, err
			}
			if !covered && doms[vn].Kind != relation.Finite {
				// Unconstrained infinite variable: head variables of a
				// bounded disjunct never land here; body variables get
				// one fresh value each (they stand for arbitrary data).
				if freshIdx >= len(u.Fresh) {
					return nil, fmt.Errorf("core: fresh pool exhausted")
				}
				vals = []relation.Value{u.Fresh[freshIdx]}
				freshIdx++
			}
			cand[vn] = vals
		}
		// Head variables must be fully covered for the construction to
		// stay finite; a blocked disjunct (no valid valuation satisfies
		// V) contributes nothing and is skipped by the search below.
		added := 0
		b := make(query.Binding, len(t.Vars))
		var rec func(i int) error
		rec = func(i int) error {
			if added >= maxAnswers {
				return errStop
			}
			if err := gate.Poll(); err != nil {
				return err
			}
			if i == len(t.Vars) {
				if !t.DiseqsHold(b) {
					return nil
				}
				delta, err := t.Apply(b, schemas)
				if err != nil {
					return err
				}
				if ok, err := v.SatisfiedGate(delta, dm, gate); err != nil || !ok {
					return err
				}
				out.UnionInto(delta)
				added++
				return nil
			}
			vn := t.Vars[i]
			for _, val := range cand[vn] {
				b[vn] = val
				ok := true
				for _, dq := range t.Diseqs {
					if holds, known := dq.Holds(b); known && !holds {
						ok = false
						break
					}
				}
				var err error
				if ok {
					err = rec(i + 1)
				}
				delete(b, vn)
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			if err == errStop {
				return nil, nil // witness exceeds cap; caller treats as "not constructed"
			}
			return nil, err
		}
	}
	if ok, err := v.SatisfiedGate(out, dm, gate); err != nil {
		return nil, err
	} else if !ok {
		// Joint interaction between added fragments (possible only with
		// multi-column INDs whose per-tuple checks passed but whose
		// union re-projects; INDs check per tuple, so this cannot
		// happen — defensive).
		return nil, fmt.Errorf("core: constructed witness violates V")
	}
	return out, nil
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
// extension produced by RCDP (the "what data should be collected"
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
		r, err := RCDP(q, cur, dm, v)
		if err != nil {
			return nil, round, err
		}
		if r.Complete {
			return cur, round, nil
		}
		cur.UnionInto(r.Extension)
	}
	return nil, maxRounds, fmt.Errorf("core: not complete after %d rounds (query may not be relatively complete)", maxRounds)
}
