package relation

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// This file holds the columnar side of Instance: the per-generation
// posting-list index and the IDIndex view consumed by the integer join
// engine in internal/cq. Posting containers enumerate ranks in
// ascending order, i.e. in the relative order of the full
// Instance.Tuples scan, so probe results are sorted subsequences of the
// deterministic tuple order.

// inlineArity is the arity up to which id scratch buffers live on the
// stack; wider tuples (rare) fall back to heap slices.
const inlineArity = 16

// Bitset is a fixed-size bitmap over tuple ranks, the dense posting
// container used for high-frequency column values where a sorted rank
// array would approach the size of the column itself.
type Bitset struct {
	words []uint64
	n     int32
}

func newBitset(size int) *Bitset {
	return &Bitset{words: make([]uint64, (size+63)/64)}
}

func (b *Bitset) set(i int32) {
	w := &b.words[i>>6]
	bit := uint64(1) << (uint(i) & 63)
	if *w&bit == 0 {
		*w |= bit
		b.n++
	}
}

// Contains reports whether rank i is set.
func (b *Bitset) Contains(i int32) bool {
	return b.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// Count returns the number of set ranks.
func (b *Bitset) Count() int32 { return b.n }

// Words exposes the raw bitmap for allocation-free ascending iteration
// (rank = 64*w + trailing-zero position). Callers must not modify it.
func (b *Bitset) Words() []uint64 { return b.words }

// ForEach visits the set ranks in ascending order until fn returns
// false; it reports whether iteration ran to completion.
func (b *Bitset) ForEach(fn func(rank int32) bool) bool {
	for w, word := range b.words {
		for word != 0 {
			r := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if !fn(r) {
				return false
			}
		}
	}
	return true
}

// postingSet is one generation's columnar index: the rank permutation
// ordering rows lexicographically (by value strings, matching
// Tuple.Less), per-column id slices in that order, and lazily built
// per-column posting containers. Like indexSet it is published with
// compare-and-swap and never mutated after a column slot fills, so
// concurrent readers of a quiescent instance need no locks.
type postingSet struct {
	gen   uint64
	rank  []int32                      // rank (sorted position) -> row
	scols [][]int32                    // [col][rank] -> id, in rank order
	cols  []atomic.Pointer[postingCol] // lazily built per-column postings
	// distinct counts the distinct ids per column of a set of 2 to
	// smallIndexRows rows, which has no posting containers to read the
	// count from (nil otherwise).
	distinct []int32
}

// postingCol holds the posting containers of one column: for each
// distinct id either a sorted rank array (sliced out of ranks) or, for
// high-frequency ids, a Bitset over ranks. Both enumerate ranks in
// ascending order, i.e. in the same relative order as the full
// Instance.Tuples scan — the property every enumeration-order-sensitive
// observation downstream relies on.
type postingCol struct {
	ids    []int32 // all distinct ids of the column, ascending
	counts []int32 // counts[i] = frequency of ids[i]
	offs   []int32 // offs[i] = start into ranks, or -1 for a Bitset
	ranks  []int32 // concatenated rank arrays of the sparse ids
	dense  map[int32]*Bitset
}

// denseWorthy decides the array-vs-bitmap switch-over: a value needs
// both an absolute floor (small bitmaps never pay for themselves) and a
// density floor of 1/16 of the column (below that the rank array is
// smaller and its cache behavior better).
func denseWorthy(count int32, n int) bool {
	return count >= 64 && int(count)*16 >= n
}

// Postings is one value's posting container: either a sorted rank
// array or, when Bits is non-nil, a bitmap over ranks. N is the number
// of matching rows either way.
type Postings struct {
	Ranks []int32
	Bits  *Bitset
	N     int32
}

// ordSortMinRows is the row count above which the rank sort goes
// through per-column order codes (one string sort per distinct value
// set, then integer row comparisons) instead of comparing value strings
// per row pair. Smaller instances — toy and test relations, the
// candidate databases and instantiation fragments of RCQP, bounded
// RCDP's extensions — skip the order-code allocation entirely.
const ordSortMinRows = 64

// ensurePostings returns the posting set for the current generation,
// building and publishing it on first use. Publication uses
// compare-and-swap: concurrent first probes may build the same set
// twice, but every build of one generation is identical, so losing the
// race is benign.
func (in *Instance) ensurePostings() *postingSet {
	set := in.postings.Load()
	if set == nil || set.gen != in.gen {
		fresh := in.buildPostingBase()
		if in.postings.CompareAndSwap(set, fresh) {
			set = fresh
		} else if set = in.postings.Load(); set == nil || set.gen != in.gen {
			// Lost the swap to a concurrent mutation's stale set; use
			// the private fresh set for this call only.
			set = fresh
		}
	}
	return set
}

// oneRank is the rank permutation shared by every single-row posting
// set.
var oneRank = []int32{0}

// buildPostingBase computes the rank permutation and rank-ordered
// column slices for the current generation. Rows are ordered by their
// value strings exactly as Tuple.Less orders materialized tuples; the
// dictionary is injective, so distinct ids always have distinct values.
//
// Instances at or below smallIndexRows never receive posting-container
// slots (ps.cols stays empty): the IDIndex view answers their probes by
// scanning, so the slots would be dead weight — and RCQP's E3/E4 search
// refills one such fragment per valuation (satisfiesV) and evaluates V
// over it, making every skipped allocation count. Single-row instances
// additionally alias the live columns instead of copying: the views are
// immutable-by-contract (readers of a mutating instance are forbidden,
// and the next generation rebuilds).
func (in *Instance) buildPostingBase() *postingSet {
	n := in.n
	arity := len(in.cols)
	if n <= 1 {
		ps := &postingSet{gen: in.gen, scols: make([][]int32, arity)}
		if n == 1 {
			ps.rank = oneRank
			for c := range ps.scols {
				ps.scols[c] = in.cols[c][:1:1]
			}
		}
		return ps
	}
	if n <= smallIndexRows {
		return in.buildSmallPostingBase()
	}
	ps := &postingSet{
		gen:   in.gen,
		rank:  make([]int32, n),
		scols: make([][]int32, arity),
		cols:  make([]atomic.Pointer[postingCol], arity),
	}
	for r := range ps.rank {
		ps.rank[r] = int32(r)
	}
	vals := shared.Snapshot()
	if arity > 0 {
		if n < ordSortMinRows {
			sort.Slice(ps.rank, func(i, j int) bool {
				return in.rowLess(vals, ps.rank[i], ps.rank[j])
			})
		} else {
			ords := make([][]int32, arity)
			for c := 0; c < arity; c++ {
				col := in.cols[c]
				idOrd := make(map[int32]int32, 64)
				for _, id := range col {
					idOrd[id] = 0
				}
				ids := make([]int32, 0, len(idOrd))
				for id := range idOrd {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return vals[ids[i]] < vals[ids[j]] })
				for o, id := range ids {
					idOrd[id] = int32(o)
				}
				oc := make([]int32, n)
				for r, id := range col {
					oc[r] = idOrd[id]
				}
				ords[c] = oc
			}
			sort.Slice(ps.rank, func(i, j int) bool {
				ri, rj := ps.rank[i], ps.rank[j]
				for c := 0; c < arity; c++ {
					if a, b := ords[c][ri], ords[c][rj]; a != b {
						return a < b
					}
				}
				return false
			})
		}
	}
	ps.fillCols(in, make([]int32, n*arity))
	return ps
}

// buildSmallPostingBase is buildPostingBase for 2..smallIndexRows rows,
// the size of RCQP's per-valuation fragments and of most toy, test and
// hard-search relations: the rank permutation, the rank-ordered columns
// and the distinct counts share one allocation, and the rows are
// ordered by insertion sort. Rows are distinct and the dictionary is
// injective, so rowLess is a total order and the permutation is the
// one any sort produces.
func (in *Instance) buildSmallPostingBase() *postingSet {
	n, arity := in.n, len(in.cols)
	buf := make([]int32, n*(arity+1)+arity)
	ps := &postingSet{gen: in.gen, rank: buf[:n:n], scols: make([][]int32, arity)}
	vals := shared.Snapshot()
	for r := 0; r < n; r++ {
		k := r
		for ; k > 0 && in.rowLess(vals, int32(r), ps.rank[k-1]); k-- {
			ps.rank[k] = ps.rank[k-1]
		}
		ps.rank[k] = int32(r)
	}
	ps.fillCols(in, buf[n:n*(arity+1)])
	ps.countDistinct(buf[n*(arity+1):])
	return ps
}

// countDistinct fills dst (one slot per column) with the distinct-id
// counts of a small set's columns and keeps it as ps.distinct: the
// join planner asks for them on every probe of the instance, so they
// are counted once per generation, not per probe.
func (ps *postingSet) countDistinct(dst []int32) {
	for c, sc := range ps.scols {
		n := int32(0)
		for i, id := range sc {
			if !slices.Contains(sc[:i], id) {
				n++
			}
		}
		dst[c] = n
	}
	ps.distinct = dst
}

// fillCols copies the columns into backing (n*arity ids) in rank
// order.
func (ps *postingSet) fillCols(in *Instance, backing []int32) {
	n := len(ps.rank)
	for c := range ps.scols {
		sc := backing[c*n : (c+1)*n : (c+1)*n]
		for k, r := range ps.rank {
			sc[k] = in.cols[c][r]
		}
		ps.scols[c] = sc
	}
}

// postingCol returns the posting containers for col, building and
// CAS-publishing them on first use.
func (in *Instance) postingColFor(ps *postingSet, col int) *postingCol {
	if col < 0 || col >= len(ps.cols) {
		return nil
	}
	if pc := ps.cols[col].Load(); pc != nil {
		return pc
	}
	pc := buildPostingCol(ps.scols[col], in.n)
	ps.cols[col].CompareAndSwap(nil, pc)
	if pub := ps.cols[col].Load(); pub != nil {
		return pub
	}
	return pc
}

// buildPostingCol groups the rank-ordered id slice of one column into
// per-id containers. Iterating sc in ascending rank order makes every
// rank array ascending by construction.
func buildPostingCol(sc []int32, n int) *postingCol {
	obs.IndexBuilds.Inc()
	counts := make(map[int32]int32, 64)
	for _, id := range sc {
		counts[id]++
	}
	ids := make([]int32, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pc := &postingCol{ids: ids, counts: make([]int32, len(ids)), offs: make([]int32, len(ids))}
	slot := make(map[int32]int32, len(ids))
	arrTotal := int32(0)
	for i, id := range ids {
		c := counts[id]
		pc.counts[i] = c
		slot[id] = int32(i)
		if denseWorthy(c, n) {
			pc.offs[i] = -1
			if pc.dense == nil {
				pc.dense = make(map[int32]*Bitset)
			}
			pc.dense[id] = newBitset(n)
		} else {
			pc.offs[i] = arrTotal
			arrTotal += c
		}
	}
	pc.ranks = make([]int32, arrTotal)
	cur := append([]int32(nil), pc.offs...)
	for k, id := range sc {
		i := slot[id]
		if pc.offs[i] < 0 {
			pc.dense[id].set(int32(k))
			continue
		}
		pc.ranks[cur[i]] = int32(k)
		cur[i]++
	}
	return pc
}

// postings returns the container of one id, or an empty Postings when
// the id does not occur in the column.
func (pc *postingCol) postings(id int32) Postings {
	i := sort.Search(len(pc.ids), func(i int) bool { return pc.ids[i] >= id })
	if i >= len(pc.ids) || pc.ids[i] != id {
		return Postings{}
	}
	if pc.offs[i] < 0 {
		return Postings{Bits: pc.dense[id], N: pc.counts[i]}
	}
	return Postings{Ranks: pc.ranks[pc.offs[i] : pc.offs[i]+pc.counts[i]], N: pc.counts[i]}
}

// IDIndex is the read-only interned view of an instance: row ids in
// deterministic rank order plus on-demand posting containers.
type IDIndex struct {
	in *Instance
	ps *postingSet
}

// IDs returns the interned view of the instance.
func (in *Instance) IDs() IDIndex {
	return IDIndex{in: in, ps: in.ensurePostings()}
}

// Rows returns the number of rows.
func (ix IDIndex) Rows() int { return len(ix.ps.rank) }

// Cols returns the columns as ids in rank (deterministic tuple)
// order, one slice per column. Callers must not modify them.
func (ix IDIndex) Cols() [][]int32 { return ix.ps.scols }

// Postings returns the posting container of id in column c, building
// the column's containers on first use.
func (ix IDIndex) Postings(c int, id int32) Postings {
	pc := ix.in.postingColFor(ix.ps, c)
	if pc == nil {
		return Postings{}
	}
	return pc.postings(id)
}

// smallIndexRows is the row count at or below which the index view
// answers probe enumeration by scanning the rank-ordered column
// directly and Distinct from counts taken when the view was built:
// toy and test relations, the truth-table relations of the hardness
// reductions and RCQP's per-valuation fragments have a handful of
// rows, and building posting containers for them (two maps plus
// several slices per column) costs more than every probe they will
// ever serve.
const smallIndexRows = 24

// Small reports whether the view is small enough that callers should
// probe by scanning Col instead of requesting posting containers.
func (ix IDIndex) Small() bool { return len(ix.ps.rank) <= smallIndexRows }

// Distinct returns the number of distinct ids in column c, the
// selectivity statistic of the join planner.
func (ix IDIndex) Distinct(c int) int {
	if c < 0 || c >= len(ix.ps.scols) {
		return 0
	}
	if ix.Small() {
		if ix.ps.distinct == nil {
			return ix.Rows() // 0 or 1 rows: n ≤ 1 sets keep no counts
		}
		return int(ix.ps.distinct[c])
	}
	pc := ix.in.postingColFor(ix.ps, c)
	if pc == nil {
		return 0
	}
	return len(pc.ids)
}

// ProjectIDSet returns the distinct projections of the instance onto
// cols as id tuples. Sets are comparable across instances because
// every instance shares the process-wide dictionary — this is what the
// p(Dm) memo in internal/cc holds.
func (in *Instance) ProjectIDSet(cols []int) *IDTupleSet {
	set := NewIDTupleSet(len(cols), in.n)
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(cols) > inlineArity {
		ids = make([]int32, 0, len(cols))
	}
	for r := 0; r < in.n; r++ {
		ids = ids[:0]
		for _, c := range cols {
			ids = append(ids, in.cols[c][r])
		}
		set.Add(ids)
	}
	return set
}
