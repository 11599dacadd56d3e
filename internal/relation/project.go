package relation

import (
	"slices"

	"repro/internal/obs"
)

// projMemo is one generation's memo of ProjectIDSet: the projections
// callers asked for at that generation, one per column list. Like the
// posting set it is published with compare-and-swap and never mutated
// afterwards: a new column list or an insert batch publishes a copy,
// so concurrent readers of a quiescent instance need no locks.
type projMemo struct {
	gen  uint64
	sets []projEntry
}

// projEntry is one memoized projection.
type projEntry struct {
	cols []int
	set  *IDTupleSet
}

// liveProjections returns the published memo and its entries at the
// current generation (none when the memo is absent or older).
func (in *Instance) liveProjections() (*projMemo, []projEntry) {
	m := in.projs.Load()
	if m == nil || m.gen != in.gen {
		return m, nil
	}
	return m, m.sets
}

// lookupProjection returns the memoized projection onto cols, or nil.
func lookupProjection(sets []projEntry, cols []int) *IDTupleSet {
	for _, e := range sets {
		if slices.Equal(e.cols, cols) {
			return e.set
		}
	}
	return nil
}

// ProjectIDSet returns the distinct projections of the instance onto
// cols as id tuples, memoized per column list for the live generation.
// Sets are comparable across instances because every instance shares
// the process-wide dictionary: these are the p(Dm) sets the
// containment constraints of internal/cc read, and each call counts as
// a p(Dm) hit or miss (obs.PDmHits, obs.PDmMisses). Add, Remove and
// Reset invalidate the memo through the generation; an insert batch
// extends it (see insertBatch). The set is shared and must not be
// modified.
func (in *Instance) ProjectIDSet(cols []int) *IDTupleSet {
	old, sets := in.liveProjections()
	if set := lookupProjection(sets, cols); set != nil {
		obs.PDmHits.Inc()
		return set
	}
	obs.PDmMisses.Inc()
	if obs.Tracing() {
		obs.Emit("pdm_build", map[string]any{"rel": in.Schema.Name, "cols": cols})
	}
	set := NewIDTupleSet(len(cols), in.n)
	in.addProjections(set, cols, 0)
	e := projEntry{cols: slices.Clone(cols), set: set}
	for {
		next := &projMemo{gen: in.gen, sets: append(slices.Clip(sets), e)}
		if in.projs.CompareAndSwap(old, next) {
			return set
		}
		// A concurrent first use published first: serve its set if it
		// holds cols, else add ours to what it published.
		old, sets = in.liveProjections()
		if pub := lookupProjection(sets, cols); pub != nil {
			return pub
		}
	}
}

// addProjections adds the projections onto cols of rows [from, n) to
// set.
func (in *Instance) addProjections(set *IDTupleSet, cols []int, from int) {
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(cols) > inlineArity {
		ids = make([]int32, 0, len(cols))
	}
	for r := from; r < in.n; r++ {
		ids = ids[:0]
		for _, c := range cols {
			ids = append(ids, in.cols[c][r])
		}
		set.Add(ids)
	}
}

// extendProjections publishes the memo for the current generation
// from the previous generation's entries, adding rows [n0, n) — the
// rows an insert-only batch appended — to copies of their sets.
// Readers may still hold the old sets, so they are never extended in
// place.
func (in *Instance) extendProjections(prev []projEntry, n0 int) {
	sets := make([]projEntry, len(prev))
	for i, e := range prev {
		set := e.set.Clone(in.n - n0)
		in.addProjections(set, e.cols, n0)
		sets[i] = projEntry{cols: e.cols, set: set}
	}
	in.projs.Store(&projMemo{gen: in.gen, sets: sets})
	obs.PDmPatches.Add(int64(len(sets)))
}
