// Package core implements the central contribution of Fan & Geerts,
// "Relative Information Completeness": deciding whether a partially
// closed database is complete for a query relative to master data and
// containment constraints (RCDP), and whether a query admits any
// relatively complete database at all (RCQP).
//
// The deciders follow the characterizations of Sections 3.2 and 4.2:
//
//   - RCDP for the monotone languages (CQ, UCQ, ∃FO⁺) × (INDs, CQ, UCQ,
//     ∃FO⁺) implements the bounded-database conditions C1–C4 of
//     Proposition 3.3 / Corollaries 3.4–3.5 as a counterexample search
//     over valid valuations with values in Adom (Theorem 3.6's Σ₂ᵖ
//     certificate space, explored by deterministic backtracking).
//   - RCQP for L_C = INDs implements the syntactic characterization
//     E3/E4 of Proposition 4.3 (coNP in general, and polynomial once
//     the valid-valuation test is done).
//   - RCQP for CQ-class constraints implements the bounded-query
//     condition E1/E2 of Proposition 4.2, confirming every candidate
//     certificate with an RCDP check so that "yes" answers always carry
//     a verified witness database.
//   - The undecidable rows of Tables I and II (FO/FP) get bounded
//     semi-decision procedures that are sound for "incomplete" and
//     report completeness only up to an explicit bound.
//
// Two engine families are exposed. The plain entry points (RCDP, RCQP,
// BoundedRCDP) run to completion and return booleans. The governed
// entry points (Checker.RCDPCtx, RCQPCtx, BoundedRCDPCtx,
// BoundedRCQPCtx) accept a context and a Budget, stop the search the
// moment a resource cap trips, and answer with a three-valued Verdict
// plus the exhausted-dimension Reason and the BudgetStats actually
// consumed — unknown is an answer, not an error. Checker.Workers
// selects between the strictly sequential engine (Workers=1) and the
// deterministic parallel engine, which returns scheduling-independent
// verdicts and witnesses.
//
// Every check reports into the internal/obs registry (check counts,
// verdict and exhaustion vectors, a latency histogram, valuation
// counters) and, when a tracer is installed, emits per-check and
// per-disjunct JSONL events; see the relcheck -metrics/-trace flags.
package core

import (
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Universe is the value space Adom of Section 3.2: all constants
// occurring in D, Dm, Q and V, plus a set New of distinct fresh values
// (one per tableau variable) that stand in for the infinitely many
// values outside the constants. Fresh values are interchangeable by
// construction, which the valuation search exploits for symmetry
// breaking.
type Universe struct {
	// Consts are the sorted constants of D, Dm, Q and V.
	Consts []relation.Value
	// Fresh are the New values, disjoint from Consts.
	Fresh []relation.Value

	freshSet map[relation.Value]bool
}

// NewUniverse builds the universe for the given problem components.
// nFresh controls how many New values are created; pass the maximum
// number of variables over the tableaux that will be instantiated.
func NewUniverse(d, dm *relation.Database, q qlang.Query, v *cc.Set, nFresh int) *Universe {
	u := &Universe{freshSet: make(map[relation.Value]bool, nFresh)}
	// The active ids of d and dm and the interned Q/V constants merge
	// into one bitset and materialize in value order by scanning the
	// dictionary's cached sort permutation — no string sort, no value
	// map.
	dict := relation.Shared()
	set := dm.InternedIDs(d.InternedIDs(nil))
	if q != nil {
		for _, val := range q.Constants() {
			set = relation.SetIDBit(set, dict.Intern(val))
		}
	}
	if v != nil {
		for _, val := range v.Constants() {
			set = relation.SetIDBit(set, dict.Intern(val))
		}
	}
	u.Consts = dict.SortedIDValues(set)
	isConst := func(val relation.Value) bool {
		id, ok := dict.ID(val)
		return ok && relation.HasIDBit(set, id)
	}
	i := 0
	for len(u.Fresh) < nFresh {
		i++
		cand := relation.Value(fmt.Sprintf("⊥%d", i))
		if isConst(cand) {
			continue
		}
		u.Fresh = append(u.Fresh, cand)
		u.freshSet[cand] = true
	}
	return u
}

// IsFreshValue reports whether val is shaped like a placeholder the
// universe mints (⊥1, ⊥2, …): a value standing in for "some value
// outside the constants" rather than a concrete constant of the
// inputs. Witness extensions carry such placeholders when the
// counterexample needs tuples no concrete value is forced for; the
// approximation layer uses this to rank acquisition advice (concrete
// facts before placeholder patterns).
func IsFreshValue(val relation.Value) bool {
	return strings.HasPrefix(string(val), "⊥")
}

// IsFresh reports whether a value is one of the New values.
func (u *Universe) IsFresh(v relation.Value) bool { return u.freshSet[v] }

// AdomFor returns the active domain adom(y) for a variable whose
// admissible attribute domain is dom: the full finite domain d_f for
// finite attributes (d_f ⊆ Adom per Section 3.2), and Consts ∪ Fresh
// for infinite attributes.
func (u *Universe) AdomFor(dom relation.Domain) []relation.Value {
	if dom.Kind == relation.Finite {
		return dom.Values
	}
	out := make([]relation.Value, 0, len(u.Consts)+len(u.Fresh))
	out = append(out, u.Consts...)
	out = append(out, u.Fresh...)
	return out
}

// schemasOf extracts the schema map of a database.
func schemasOf(d *relation.Database) map[string]*relation.Schema {
	out := make(map[string]*relation.Schema)
	if d == nil {
		return out
	}
	for _, name := range d.Relations() {
		out[name] = d.Schema(name)
	}
	return out
}

// tableauVarCount returns the largest variable count over the tableaux.
func tableauVarCount(ts []*cq.Tableau) int {
	max := 0
	for _, t := range ts {
		if len(t.Vars) > max {
			max = len(t.Vars)
		}
	}
	return max
}
