package core

import (
	"context"
	"fmt"
	"slices"

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
//
// The rule lives in two steps that every caller composes: Delta.Gate,
// evaluated once per batch before it applies, and DeltaGate.Reuse,
// asked per query after it applies. RecheckDeltaCtx is the one-query
// composition; the serving layer's catalog gates a batch once for all
// of its watched queries.

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

// DeltaGate is the invisibility gate of one batch, evaluated once on
// the PRE-apply state and then asked per query. It holds the two facts
// of the reuse condition that do not depend on the query: whether the
// batch is a master-side insert meeting condition 1, and which inserted
// values lie outside Adom(D, Dm, V). Condition 2 holds for q when each
// of those values is a constant of q.
type DeltaGate struct {
	contained bool
	outside   []relation.Value
}

// Gate evaluates the delta's invisibility gate against (D, Dm, V). It
// must run before the delta applies: the projections and the active
// domain it reads are the ones the cached verdicts were computed
// against.
func (dl *Delta) Gate(d, dm *relation.Database, v *cc.Set) DeltaGate {
	if dl.Empty() {
		return DeltaGate{contained: true}
	}
	if !dl.Master || !dl.InsertOnly() || dm == nil {
		return DeltaGate{}
	}
	if v != nil {
		for _, c := range v.Constraints {
			if c.P.IsEmptySet() {
				continue
			}
			for _, t := range dl.Inserts[c.P.Rel] {
				if !c.MasterProjectionHas(dm, t) {
					return DeltaGate{}
				}
			}
		}
	}
	// Probe the databases through their id bitsets and non-mutating
	// dictionary lookups (never Intern, which would grow the dictionary
	// as a side effect).
	g := DeltaGate{contained: true}
	dict := relation.Shared()
	adom := dm.InternedIDs(d.InternedIDs(nil))
	consts := v.Constants()
	for _, ts := range dl.Inserts {
		for _, t := range ts {
			for _, val := range t {
				if id, ok := dict.ID(val); ok && relation.HasIDBit(adom, id) {
					continue
				}
				if !slices.Contains(consts, val) && !slices.Contains(g.outside, val) {
					g.outside = append(g.outside, val)
				}
			}
		}
	}
	return g
}

// invisible reports whether the gated batch is extensionally invisible
// to the RCDP search for q: applying it cannot change the verdict, the
// witness, or the order the search finds them in.
func (g DeltaGate) invisible(q qlang.Query) bool {
	if !g.contained {
		return false
	}
	for _, val := range g.outside {
		if !slices.Contains(q.Constants(), val) {
			return false
		}
	}
	return true
}

// Reuse decides, on the POST-apply state (D, Dm, V), whether prev still
// answers q after the gated batch: prev must be reusable
// (ResultReusable) and the batch invisible to q. A cached Incomplete
// is reused only if its witness revalidates against the patched data
// (D ∪ ext must still satisfy V): under the gate this cannot fail, so
// it is a cheap guard against gate bugs that routes q to the cold path.
// Every decision is counted in obs.RecheckReused or obs.RecheckCold.
func (g DeltaGate) Reuse(q qlang.Query, prev *RCDPResult, d, dm *relation.Database, v *cc.Set) bool {
	reuse := ResultReusable(prev) && g.invisible(q)
	if reuse && prev.Verdict == VerdictIncomplete {
		reuse = false
		if prev.Extension != nil {
			ok, err := v.SatisfiedDelta(d, prev.Extension, dm)
			reuse = err == nil && ok
		}
	}
	if reuse {
		obs.RecheckReused.Inc()
	} else {
		obs.RecheckCold.Inc()
	}
	return reuse
}

// WitnessReusable is the one-query form of the gate: whether dl,
// evaluated on the PRE-apply state (D, Dm, V), is invisible to q.
func (dl *Delta) WitnessReusable(q qlang.Query, d, dm *relation.Database, v *cc.Set) bool {
	return dl.Gate(d, dm, v).invisible(q)
}

// Apply applies the delta to its target database and returns the rows
// actually added and removed. An insert batch extends the target
// instances' posting indexes and p(Dm) memos instead of leaving them
// to a rebuild (relation.Database.ApplyBatch). v is unused;
// relperf/replay.go still passes it. Like every mutation, Apply
// requires that no concurrent reader observes the databases while it
// runs.
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
	return target.ApplyBatch(dl.Batch())
}

// ResultReusable reports whether prev can stand in for a rerun on
// unchanged inputs. Decisive verdicts always can. Unknown can only when
// the exhausted dimension reproduces deterministically: the per-disjunct
// valuation cap does (its claims go through the same deterministic
// arbitration as witnesses), while wall-clock, cancellation and the
// globally raced row/tuple gates do not. DeltaGate.Reuse asks it
// first; it is exported for callers that keep cached results of their
// own (relperf's mutation replay).
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
// mutated state: the delta's gate is evaluated before the batch
// applies, and DeltaGate.Reuse decides after it whether prev stands.
// Otherwise it falls back to a full RCDPCtx run over the
// (incrementally re-indexed) databases. The boolean reports whether
// the cached result was reused.
//
// Like RCDPCtx, a nil error with VerdictUnknown means governance
// stopped the fallback search; an apply error leaves the databases
// unchanged (ApplyBatch validates before it mutates).
func (ck *Checker) RecheckDeltaCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database,
	v *cc.Set, prev *RCDPResult, dl *Delta) (*RCDPResult, bool, error) {
	g := dl.Gate(d, dm, v)
	if _, _, err := dl.Apply(d, dm, v); err != nil {
		return nil, false, err
	}
	if g.Reuse(q, prev, d, dm, v) {
		return prev, true, nil
	}
	res, err := ck.RCDPCtx(ctx, q, d, dm, v)
	return res, false, err
}
