package cc

import (
	"repro/internal/obs"
	"repro/internal/relation"
)

// Incremental maintenance of the p(Dm) memo under master-data batches.
//
// The memo slots in Constraint.pcache key on (instance identity, generation),
// so any out-of-band mutation already invalidates it lazily: the next
// masterCache call sees the generation mismatch and rebuilds. What that
// leaves on the table is the warm-cache property after a small
// insert-only batch — an O(|Dm|) projection rebuild for a handful of new
// rows. PatchMaster closes the gap with copy-on-write: the old memo's
// sets are cloned (they may be under concurrent read by in-flight
// checkers holding the old *projCache), the inserted tuples' projections
// are added, and the result is published at the new generation.
// Constraints whose master relation the batch does not touch keep their
// memos untouched — selective invalidation falls out of the per-instance
// generation keys.

// MasterPatch describes what one master relation received from an
// insert-only batch: the generation observed immediately before the
// batch applied, and the tuples inserted. The pre-apply generation
// guards correctness — a memo older than PreGen is missing earlier
// mutations and must rebuild, not patch.
type MasterPatch struct {
	PreGen   uint64
	Inserted []relation.Tuple
}

// PatchMaster extends the memoized master-side projections of every
// constraint whose projected relation appears in patches. Memos that
// are absent, bound to a different instance, or stale relative to
// PreGen are left alone (the next access rebuilds them). Deletions
// never patch: callers simply skip PatchMaster and the generation
// mismatch forces a rebuild.
func (s *Set) PatchMaster(dm *relation.Database, patches map[string]MasterPatch) {
	if s == nil || dm == nil || len(patches) == 0 {
		return
	}
	for _, c := range s.Constraints {
		c.patchMaster(dm, patches)
	}
}

func (c *Constraint) patchMaster(dm *relation.Database, patches map[string]MasterPatch) {
	if c.P.IsEmptySet() {
		return
	}
	patch, ok := patches[c.P.Rel]
	if !ok || len(patch.Inserted) == 0 {
		return
	}
	in := dm.Instance(c.P.Rel)
	if in == nil {
		return
	}
	slot, old := c.cachedProjection(in, patch.PreGen)
	if old == nil {
		return // no memo, or stale before the batch: leave to lazy rebuild
	}
	if in.Generation() == patch.PreGen {
		return // the batch deduplicated to nothing; the memo is current
	}
	for _, t := range patch.Inserted {
		for _, col := range c.P.Cols {
			if col < 0 || col >= len(t) {
				return // malformed patch: never publish a wrong memo
			}
		}
	}
	rhsIDs := old.rhsIDs.Clone(len(patch.Inserted))
	ids := make([]int32, len(c.P.Cols))
	for _, t := range patch.Inserted {
		if !c.projectIDs(t, ids) {
			// The tuple's values never reached the dictionary, so the
			// instance cannot hold it in interned form; the memo would
			// go wrong — rebuild instead.
			return
		}
		rhsIDs.Add(ids)
	}
	c.pcache[slot].Store(&projCache{inst: in, gen: in.Generation(), rhsIDs: rhsIDs})
	obs.PDmPatches.Inc()
}

// projectIDs fills ids with the dictionary ids of t's projection onto
// the master-side columns, which must be in range, and reports false
// when one of those values is not in the dictionary.
func (c *Constraint) projectIDs(t relation.Tuple, ids []int32) bool {
	dict := relation.Shared()
	for i, col := range c.P.Cols {
		id, found := dict.ID(t[col])
		if !found {
			return false
		}
		ids[i] = id
	}
	return true
}

// MasterProjectionHas reports whether the projection of t onto the
// constraint's master-side columns is already present in p(Dm). This is
// the membership probe behind the witness-reuse gate in internal/core:
// a master insert whose projection is already in every affected
// constraint's p(Dm) is extensionally invisible to the constraint.
// Empty-set projections and tuples too short for the projection report
// false.
func (c *Constraint) MasterProjectionHas(dm *relation.Database, t relation.Tuple) bool {
	if c.P.IsEmptySet() {
		return false
	}
	for _, col := range c.P.Cols {
		if col < 0 || col >= len(t) {
			return false
		}
	}
	ids := make([]int32, len(c.P.Cols))
	return c.projectIDs(t, ids) && c.MasterIDs(dm).Has(ids)
}
