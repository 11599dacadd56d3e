package relation

import (
	"math/bits"
	"slices"
	"strings"
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
	// distinct counts the distinct ids per column, taken when the set
	// is built (nil for sets of 0 or 1 rows), so the join planner's
	// selectivity statistic never builds posting containers.
	distinct []int32
}

// postingCol holds the posting containers of one column: for each
// distinct id either a sorted rank array (sliced out of ranks) or, for
// high-frequency ids, a Bitset over ranks. Both enumerate ranks in
// ascending order, i.e. in the same relative order as the full
// Instance.Tuples scan — the property every enumeration-order-sensitive
// observation downstream relies on.
type postingCol struct {
	ids    []int32   // all distinct ids of the column, ascending
	counts []int32   // counts[i] = frequency of ids[i]
	offs   []int32   // offs[i] = start into ranks, or -1 for a Bitset
	ranks  []int32   // concatenated rank arrays of the sparse ids
	dense  []*Bitset // dense[i] is ids[i]'s Bitset (nil: no dense ids)
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
	backing := make([]int32, (n+1)*arity)
	ps := &postingSet{
		gen:      in.gen,
		scols:    make([][]int32, arity),
		cols:     make([]atomic.Pointer[postingCol], arity),
		distinct: backing[n*arity:],
	}
	ps.rank = in.sortRows(backing[:n*arity], ps.distinct)
	ps.fillCols(in, backing[:n*arity])
	return ps
}

// sortRows returns the rank permutation of an instance above
// smallIndexRows and fills distinct with each column's distinct-id
// count, using codes (n ids per column) as scratch. Each column's rows
// are grouped by id with one integer sort of id<<32|row; only the
// column's distinct ids are sorted by value, which gives every row a
// dense order code. The rows are then ordered by stable counting sorts
// over the codes, last column first, each O(n + distinct). A column
// with a distinct id per row orders the rows by itself, so its codes
// place the rows directly and the columns after it are only counted.
func (in *Instance) sortRows(codes, distinct []int32) []int32 {
	n, arity := in.n, len(in.cols)
	vals := shared.Snapshot()
	keys := make([]uint64, n)
	var gids, byVal []int32
	last := arity - 1 // the last column whose codes order the rows
	for c := 0; c < arity; c++ {
		code := codes[c*n : (c+1)*n]
		if c > last {
			copy(code, in.cols[c])
			slices.Sort(code)
			distinct[c] = int32(len(slices.Compact(code)))
			continue
		}
		for r, id := range in.cols[c] {
			keys[r] = uint64(uint32(id))<<32 | uint64(r)
		}
		slices.Sort(keys)
		gids = gids[:0]
		for i, key := range keys {
			if i == 0 || key>>32 != keys[i-1]>>32 {
				gids = append(gids, int32(key>>32))
			}
		}
		k := len(gids)
		distinct[c] = int32(k)
		// byVal lists the groups in value order; gids is then reused
		// as each group's order code.
		byVal = slices.Grow(byVal[:0], k)[:k]
		for g := range byVal {
			byVal[g] = int32(g)
		}
		slices.SortFunc(byVal, func(a, b int32) int {
			return strings.Compare(string(vals[gids[a]]), string(vals[gids[b]]))
		})
		for o, g := range byVal {
			gids[g] = int32(o)
		}
		g := -1
		for i, key := range keys {
			if i == 0 || key>>32 != keys[i-1]>>32 {
				g++
			}
			code[uint32(key)] = gids[g]
		}
		if k == n {
			last = c
		}
	}
	rank := make([]int32, n)
	from := last
	if int(distinct[last]) == n {
		for r, o := range codes[last*n : (last+1)*n] {
			rank[o] = int32(r)
		}
		from--
	} else {
		for r := range rank {
			rank[r] = int32(r)
		}
	}
	if from < 0 {
		return rank
	}
	tmp := make([]int32, n)
	var count []int32
	for c := from; c >= 0; c-- {
		code := codes[c*n : (c+1)*n]
		count = slices.Grow(count[:0], int(distinct[c])+1)[:distinct[c]+1]
		clear(count)
		for _, o := range code {
			count[o+1]++
		}
		for o := 1; o < len(count); o++ {
			count[o] += count[o-1]
		}
		for _, r := range rank {
			o := code[r]
			tmp[count[o]] = r
			count[o]++
		}
		rank, tmp = tmp, rank
	}
	return rank
}

// buildSmallPostingBase is buildPostingBase for 2..smallIndexRows rows,
// the size of RCQP's per-valuation fragments and of most toy, test and
// hard-search relations: the rank permutation, the rank-ordered columns
// and the distinct counts share one allocation, and the rows are
// ordered by insertion sort. Rows are distinct and the dictionary is
// injective, so rowCompare is a total order and the permutation is the
// one any sort produces.
func (in *Instance) buildSmallPostingBase() *postingSet {
	n, arity := in.n, len(in.cols)
	buf := make([]int32, n*(arity+1)+arity)
	ps := &postingSet{gen: in.gen, rank: buf[:n:n], scols: make([][]int32, arity)}
	vals := shared.Snapshot()
	for r := 0; r < n; r++ {
		k := r
		for ; k > 0 && in.rowCompare(vals, int32(r), ps.rank[k-1]) < 0; k-- {
			ps.rank[k] = ps.rank[k-1]
		}
		ps.rank[k] = int32(r)
	}
	ps.fillCols(in, buf[n:n*(arity+1)])
	ps.countDistinct(buf[n*(arity+1):])
	return ps
}

// countDistinct fills dst (one slot per column) with the distinct-id
// counts of the set's columns and keeps it as ps.distinct: the join
// planner asks for them on every probe of the instance, so they are
// counted once per generation, not per probe. Columns above
// smallIndexRows are counted on a sorted copy.
func (ps *postingSet) countDistinct(dst []int32) {
	var scratch []int32
	for c, sc := range ps.scols {
		if len(sc) > smallIndexRows {
			scratch = append(scratch[:0], sc...)
			slices.Sort(scratch)
			dst[c] = int32(len(slices.Compact(scratch)))
			continue
		}
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
	pc := buildPostingCol(ps.scols[col], int(ps.distinct[col]))
	ps.cols[col].CompareAndSwap(nil, pc)
	if pub := ps.cols[col].Load(); pub != nil {
		return pub
	}
	return pc
}

// buildPostingCol groups the rank-ordered id slice of one column,
// which holds k distinct ids, into per-id containers. One integer sort
// of id<<32|rank groups the ranks by id, ascending within each group,
// so ids, counts, offsets and rank arrays fill in linear passes.
func buildPostingCol(sc []int32, k int) *postingCol {
	obs.IndexBuilds.Inc()
	n := len(sc)
	keys := make([]uint64, n)
	for r, id := range sc {
		keys[r] = uint64(uint32(id))<<32 | uint64(r)
	}
	slices.Sort(keys)
	buf := make([]int32, 3*k)
	pc := &postingCol{ids: buf[:k:k], counts: buf[k : 2*k : 2*k], offs: buf[2*k:]}
	arrTotal := int32(0)
	for i, g := 0, 0; i < n; g++ {
		j := i + 1
		for j < n && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		c := int32(j - i)
		pc.ids[g], pc.counts[g] = int32(keys[i]>>32), c
		if denseWorthy(c, n) {
			pc.offs[g] = -1
		} else {
			pc.offs[g] = arrTotal
			arrTotal += c
		}
		i = j
	}
	pc.ranks = make([]int32, arrTotal)
	i := 0
	for g, c := range pc.counts {
		group := keys[i : i+int(c)]
		i += int(c)
		if off := pc.offs[g]; off >= 0 {
			for x, key := range group {
				pc.ranks[off+int32(x)] = int32(uint32(key))
			}
			continue
		}
		if pc.dense == nil {
			pc.dense = make([]*Bitset, k)
		}
		b := newBitset(n)
		for _, key := range group {
			b.set(int32(uint32(key)))
		}
		pc.dense[g] = b
	}
	return pc
}

// postings returns the container of one id, or an empty Postings when
// the id does not occur in the column.
func (pc *postingCol) postings(id int32) Postings {
	i, found := slices.BinarySearch(pc.ids, id)
	if !found {
		return Postings{}
	}
	if pc.offs[i] < 0 {
		return Postings{Bits: pc.dense[i], N: pc.counts[i]}
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
	if ix.ps.distinct == nil {
		return ix.Rows() // 0 or 1 rows: n ≤ 1 sets keep no counts
	}
	return int(ix.ps.distinct[c])
}
