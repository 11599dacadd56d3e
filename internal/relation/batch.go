package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Batch is one set of tuple insertions and deletions against a
// database, grouped per relation. ApplyBatch validates every tuple
// before any row moves, so a malformed batch leaves the database
// untouched; within a batch, inserts apply before deletes.
type Batch struct {
	Inserts map[string][]Tuple
	Deletes map[string][]Tuple
}

// Empty reports whether the batch carries no tuples at all.
func (b Batch) Empty() bool {
	for _, ts := range b.Inserts {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range b.Deletes {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// InsertOnly reports whether the batch carries no deletions.
func (b Batch) InsertOnly() bool {
	for _, ts := range b.Deletes {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// Relations returns the sorted relation names the batch touches.
func (b Batch) Relations() []string {
	seen := make(map[string]bool)
	for rel, ts := range b.Inserts {
		if len(ts) > 0 {
			seen[rel] = true
		}
	}
	for rel, ts := range b.Deletes {
		if len(ts) > 0 {
			seen[rel] = true
		}
	}
	out := make([]string, 0, len(seen))
	for rel := range seen {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// ApplyBatch applies a batch of insertions and deletions. The whole
// batch is validated first — unknown relations, arity mismatches and
// finite-domain violations on inserts are errors that leave the
// database unchanged. Inserts apply before deletes, relations in
// sorted-name order; duplicate inserts and absent deletes are no-ops.
// It returns the number of rows actually added and removed.
//
// Insert-only batches against an instance whose posting set
// is current extend the index incrementally: the new rows merge into
// the existing rank permutation in O(n + b) instead of the O(n log n)
// rebuild a cold access would pay (see Instance.insertBatch). Like
// every mutation, ApplyBatch requires that no concurrent reader
// observes the database while it runs.
func (d *Database) ApplyBatch(b Batch) (ins, del int, err error) {
	if err := d.validateBatch(b); err != nil {
		return 0, 0, err
	}
	for _, rel := range sortedKeys(b.Inserts) {
		if ts := b.Inserts[rel]; len(ts) > 0 {
			ins += d.Instance(rel).insertBatch(ts)
		}
	}
	for _, rel := range sortedKeys(b.Deletes) {
		in := d.Instance(rel)
		before := in.Len()
		for _, t := range b.Deletes[rel] {
			in.Remove(t)
		}
		del += before - in.Len()
	}
	return ins, del, nil
}

// validateBatch checks every tuple of the batch against the database
// schemas. Inserts get the full Add validation (arity plus finite
// domains); deletes only need a known relation and the right arity —
// an out-of-domain tuple cannot be present, so deleting it is a no-op
// rather than an error.
func (d *Database) validateBatch(b Batch) error {
	for _, rel := range sortedKeys(b.Inserts) {
		in := d.Instance(rel)
		if in == nil {
			return fmt.Errorf("relation: batch insert into unknown relation %s", rel)
		}
		for _, t := range b.Inserts[rel] {
			if len(t) != in.Schema.Arity() {
				return fmt.Errorf("relation: batch insert: %s expects arity %d, got tuple %v",
					rel, in.Schema.Arity(), t)
			}
			for i, v := range t {
				if !in.Schema.Attrs[i].Domain.Contains(v) {
					return fmt.Errorf("relation: batch insert: %s.%s: value %q outside finite domain %s",
						rel, in.Schema.Attrs[i].Name, v, in.Schema.Attrs[i].Domain)
				}
			}
		}
	}
	for _, rel := range sortedKeys(b.Deletes) {
		in := d.Instance(rel)
		if in == nil {
			return fmt.Errorf("relation: batch delete from unknown relation %s", rel)
		}
		for _, t := range b.Deletes[rel] {
			if len(t) != in.Schema.Arity() {
				return fmt.Errorf("relation: batch delete: %s expects arity %d, got tuple %v",
					rel, in.Schema.Arity(), t)
			}
		}
	}
	return nil
}

func sortedKeys(m map[string][]Tuple) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// insertBatch adds pre-validated tuples and returns the number of rows
// actually inserted. When the instance's published posting set is
// current, the fresh rows are merged into the existing
// rank permutation instead of leaving the whole index to a cold
// rebuild: an insert-only batch never moves existing rows, so the old
// permutation stays a sorted prefix-set of the new one. For the same
// reason the live ProjectIDSet memo is extended by the fresh rows
// instead of being rebuilt on its next use.
func (in *Instance) insertBatch(ts []Tuple) int {
	var old *postingSet
	if ps := in.postings.Load(); ps != nil && ps.gen == in.gen {
		old = ps
	}
	_, projs := in.liveProjections()
	n0 := in.n
	for _, t := range ts {
		_ = in.Add(t) // pre-validated by ApplyBatch
	}
	added := in.n - n0
	if added > 0 && old != nil {
		in.postings.Store(in.mergePostings(old, n0))
	}
	if added > 0 && len(projs) > 0 {
		in.extendProjections(projs, n0)
	}
	return added
}

// mergePostings builds the posting set for the current generation by
// merging the previous generation's rank permutation (rows < n0, whose
// numbers an insert-only batch never changes) with the newly appended
// rows [n0, in.n), sorted among themselves — O((n+b)·arity) id
// comparisons instead of a full rebuild by buildPostingBase. The
// distinct counts are retaken on sorted copies; per-column posting
// containers rebuild lazily on demand, as always.
func (in *Instance) mergePostings(old *postingSet, n0 int) *postingSet {
	vals := shared.Snapshot()
	fresh := make([]int32, in.n-n0)
	for i := range fresh {
		fresh[i] = int32(n0 + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int { return in.rowCompare(vals, a, b) })
	rank := make([]int32, 0, in.n)
	oi, fi := 0, 0
	for oi < len(old.rank) && fi < len(fresh) {
		// The dictionary is injective and rows are deduplicated, so two
		// distinct rows never compare equal; strict less suffices.
		if in.rowCompare(vals, old.rank[oi], fresh[fi]) < 0 {
			rank = append(rank, old.rank[oi])
			oi++
		} else {
			rank = append(rank, fresh[fi])
			fi++
		}
	}
	rank = append(rank, old.rank[oi:]...)
	rank = append(rank, fresh[fi:]...)
	return in.postingSetForRank(rank)
}

// rowCompare orders two rows of an interned instance by their value
// strings, exactly as Tuple.Less orders the materialized tuples.
func (in *Instance) rowCompare(vals []Value, r1, r2 int32) int {
	for c := range in.cols {
		if a, b := in.cols[c][r1], in.cols[c][r2]; a != b {
			return strings.Compare(string(vals[a]), string(vals[b]))
		}
	}
	return 0
}

// postingSetForRank materializes the posting set for the current
// generation from a precomputed rank permutation, following the same
// small-instance conventions as buildPostingBase (n ≤ 1 aliases the
// live columns; container slots only above smallIndexRows).
func (in *Instance) postingSetForRank(rank []int32) *postingSet {
	n, arity := in.n, len(in.cols)
	if n <= 1 {
		return in.buildPostingBase()
	}
	ps := &postingSet{gen: in.gen, rank: rank, scols: make([][]int32, arity)}
	if n > smallIndexRows {
		ps.cols = make([]atomic.Pointer[postingCol], arity)
	}
	buf := make([]int32, (n+1)*arity)
	ps.fillCols(in, buf[:n*arity])
	ps.countDistinct(buf[n*arity:])
	return ps
}
