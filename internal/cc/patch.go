package cc

import (
	"repro/internal/obs"
	"repro/internal/relation"
)

// Incremental maintenance of the p(Dm) memo under master-data batches.
//
// The memo in Constraint.pcache keys on (instance identity, generation),
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
	old := c.pcache.Load()
	if old == nil || old.inst != in || old.gen != patch.PreGen {
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
	rhs := make(map[string]bool, len(old.rhs)+len(patch.Inserted))
	for k := range old.rhs {
		rhs[k] = true
	}
	rhsIDs := old.rhsIDs.Clone(len(patch.Inserted))
	dict := relation.Shared()
	var ib []int32
	for _, t := range patch.Inserted {
		proj := t.Project(c.P.Cols)
		rhs[proj.Key()] = true
		ib = ib[:0]
		for _, v := range proj {
			id, found := dict.ID(v)
			if !found {
				// The tuple's values never reached the dictionary, so the
				// instance cannot hold it in interned form; the id memo
				// would go wrong — rebuild instead.
				return
			}
			ib = append(ib, id)
		}
		rhsIDs.Add(ib)
	}
	c.pcache.Store(&projCache{inst: in, gen: in.Generation(), rhs: rhs, rhsIDs: rhsIDs})
	obs.PDmPatches.Inc()
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
	return c.masterSide(dm)[t.Project(c.P.Cols).Key()]
}
