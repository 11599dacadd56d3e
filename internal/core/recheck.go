package core

import (
	"context"
	"fmt"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Incremental completeness maintenance under catalog mutations.
//
// A Delta is one batch of tuple insertions and deletions against either
// the database D or the master data Dm. RecheckDeltaCtx applies it and
// answers the RCDP question for the mutated state, reusing the previous
// verdict when the mutation provably cannot change it.
//
// The reuse condition is *extensional invisibility*: the search engine
// reads Dm only through the constraint-head projections p(Dm) (partial
// closure, the witness validity test, the IND pruner, the relevant-value
// feeds) and through the active domain Adom (the universe the valuation
// search enumerates). A master-side, insert-only batch whose tuples
//
//  1. project into every affected constraint's pre-batch p(Dm), and
//  2. carry only values already in Adom(D, Dm, Q, V)
//
// leaves every one of those read sets — and hence the entire search,
// branch for branch — bit-identical to the pre-batch run. Under that
// gate the cached result IS the cold rerun's result, for Complete and
// Incomplete verdicts alike; no monotonicity assumption is needed.
// Deletions, D-side mutations, new projections and new values all fall
// through to a full re-search (the relation and cc layers still patch
// indexes and memos incrementally, so the cold path starts warm).

// Delta is one mutation batch against a check's inputs: Master selects
// the target database (false mutates D, true mutates Dm); Inserts and
// Deletes group tuples per relation, with ApplyBatch semantics
// (validate-first atomicity, inserts before deletes, duplicates and
// absent deletes as no-ops).
type Delta struct {
	Master  bool
	Inserts map[string][]relation.Tuple
	Deletes map[string][]relation.Tuple
}

// Batch returns the delta's tuple payload as a relation.Batch.
func (dl *Delta) Batch() relation.Batch {
	return relation.Batch{Inserts: dl.Inserts, Deletes: dl.Deletes}
}

// Empty reports whether the delta carries no tuples.
func (dl *Delta) Empty() bool { return dl == nil || dl.Batch().Empty() }

// InsertOnly reports whether the delta carries no deletions.
func (dl *Delta) InsertOnly() bool { return dl == nil || dl.Batch().InsertOnly() }

// WitnessReusable reports whether the delta is extensionally invisible
// to the RCDP search for (Q, D, Dm, V): applying it cannot change the
// verdict, the witness, or the order the search finds them in. It must
// be evaluated on the PRE-apply state — the projection and active-domain
// memberships it probes are the ones the cached verdict was computed
// against.
func (dl *Delta) WitnessReusable(q qlang.Query, d, dm *relation.Database, v *cc.Set) bool {
	if dl.Empty() {
		return true
	}
	if !dl.Master || !dl.InsertOnly() || dm == nil {
		return false
	}
	// Condition 2: every inserted value already occurs in Adom, so the
	// universe (and with it every enumeration order) is unchanged.
	probe := newAdomProbe(d, dm, q, v)
	for _, ts := range dl.Inserts {
		for _, t := range ts {
			for _, val := range t {
				if !probe.has(val) {
					return false
				}
			}
		}
	}
	// Condition 1: every affected constraint's master-side projection
	// p(Dm) already contains the inserted tuples' projections, so no
	// containment test, pruner bound or relevant-value feed moves.
	if v != nil {
		for _, c := range v.Constraints {
			if c.P.IsEmptySet() {
				continue
			}
			for _, t := range dl.Inserts[c.P.Rel] {
				if !c.MasterProjectionHas(dm, t) {
					return false
				}
			}
		}
	}
	return true
}

// adomProbe answers "is this value already in Adom(D, Dm, Q, V)?"
// without mutating anything: the databases are probed through their id
// bitsets and non-mutating dictionary lookups (never Intern, which
// would grow the dictionary as a side effect), with the Q/V constants
// held as strings.
type adomProbe struct {
	bits   []uint64
	consts map[relation.Value]bool
}

func newAdomProbe(d, dm *relation.Database, q qlang.Query, v *cc.Set) *adomProbe {
	p := &adomProbe{consts: make(map[relation.Value]bool)}
	if q != nil {
		for _, val := range q.Constants() {
			p.consts[val] = true
		}
	}
	if v != nil {
		for _, val := range v.Constants() {
			p.consts[val] = true
		}
	}
	p.bits = dm.InternedIDs(d.InternedIDs(nil))
	return p
}

func (p *adomProbe) has(val relation.Value) bool {
	if p.consts[val] {
		return true
	}
	id, ok := relation.Shared().ID(val)
	return ok && relation.HasIDBit(p.bits, id)
}

// Apply applies the delta to its target database. Master-side
// insert-only batches additionally extend the affected constraints'
// p(Dm) memos in place (cc.Set.PatchMaster) instead of leaving them to
// an O(|Dm|) rebuild; the relation layer patches posting-list indexes
// the same way inside ApplyBatch. It returns the rows actually added
// and removed. Like every mutation, Apply requires that no concurrent
// reader observes the databases while it runs.
func (dl *Delta) Apply(d, dm *relation.Database, v *cc.Set) (ins, del int, err error) {
	if dl.Empty() {
		return 0, 0, nil
	}
	target := d
	if dl.Master {
		target = dm
	}
	if target == nil {
		return 0, 0, fmt.Errorf("core: delta targets a nil database")
	}
	var preGens map[string]uint64
	if dl.Master && dl.InsertOnly() && v != nil {
		preGens = make(map[string]uint64, len(dl.Inserts))
		for rel := range dl.Inserts {
			if in := dm.Instance(rel); in != nil {
				preGens[rel] = in.Generation()
			}
		}
	}
	ins, del, err = target.ApplyBatch(dl.Batch())
	if err != nil {
		return 0, 0, err
	}
	if preGens != nil {
		patches := make(map[string]cc.MasterPatch, len(preGens))
		for rel, gen := range preGens {
			patches[rel] = cc.MasterPatch{PreGen: gen, Inserted: dl.Inserts[rel]}
		}
		v.PatchMaster(dm, patches)
	}
	return ins, del, nil
}

// ResultReusable reports whether prev can stand in for a rerun on
// unchanged inputs. Decisive verdicts always can. Unknown can only when
// the exhausted dimension reproduces deterministically: the per-disjunct
// valuation cap does (its claims go through the same deterministic
// arbitration as witnesses), while wall-clock, cancellation and the
// globally raced row/tuple gates do not. Exported for callers (the
// serving layer's verdict cache) that gate many cached results on one
// Delta and therefore cannot go through RecheckDeltaCtx, which applies
// the delta as a side effect.
func ResultReusable(prev *RCDPResult) bool {
	if prev == nil {
		return false
	}
	switch prev.Verdict {
	case VerdictComplete, VerdictIncomplete:
		return true
	case VerdictUnknown:
		return prev.Reason == ReasonValuations
	}
	return false
}

// RecheckDeltaCtx applies dl to (D, Dm) and decides RCDP for the
// mutated state. When dl passes the invisibility gate (WitnessReusable,
// evaluated before the batch applies) and prev is a reusable result for
// the pre-batch state, the cached result is returned as-is — for a
// cached Incomplete the witness is first cheaply revalidated against
// the patched data as defense in depth. Otherwise it falls back to a
// full RCDPCtx run over the (incrementally re-indexed) databases. The
// boolean reports whether the cached result was reused.
//
// Like RCDPCtx, a nil error with VerdictUnknown means governance
// stopped the fallback search; an apply error leaves the databases
// unchanged (ApplyBatch validates before it mutates).
func (ck *Checker) RecheckDeltaCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database,
	v *cc.Set, prev *RCDPResult, dl *Delta) (*RCDPResult, bool, error) {
	reuse := ResultReusable(prev) && dl.WitnessReusable(q, d, dm, v)
	if _, _, err := dl.Apply(d, dm, v); err != nil {
		return nil, false, err
	}
	if reuse {
		if prev.Verdict != VerdictIncomplete || ck.revalidateWitness(d, dm, v, prev) {
			obs.RecheckReused.Inc()
			return prev, true, nil
		}
	}
	obs.RecheckCold.Inc()
	res, err := ck.RCDPCtx(ctx, q, d, dm, v)
	return res, false, err
}

// RecheckDelta is RecheckDeltaCtx with context.Background(). Unlike the
// legacy RCDP wrapper it keeps the three-valued result: a reused
// Unknown is an answer, not an error.
func (ck *Checker) RecheckDelta(q qlang.Query, d, dm *relation.Database,
	v *cc.Set, prev *RCDPResult, dl *Delta) (*RCDPResult, bool, error) {
	return ck.RecheckDeltaCtx(context.Background(), q, d, dm, v, prev, dl)
}

// revalidateWitness re-verifies a cached incompleteness witness against
// the mutated data: D ∪ Δ must still satisfy V. Under the invisibility
// gate this cannot fail; it is a cheap guard against gate bugs, and a
// failure routes the check to the cold path.
func (ck *Checker) revalidateWitness(d, dm *relation.Database, v *cc.Set, prev *RCDPResult) bool {
	if prev.Extension == nil {
		return false
	}
	ok, err := v.SatisfiedDelta(d, prev.Extension, dm)
	return err == nil && ok
}
