package relation

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Dict is an append-only symbol table interning Values as dense int32
// ids. Ids are assigned in first-seen order and never reused, so a
// value's id is stable for the life of the process and two interned
// instances sharing a Dict can compare tuples by comparing ids.
//
// The zero Dict is not usable; construct with NewDict. Lookup paths
// take only the read lock, so concurrent readers never serialize
// against each other; Intern takes the write lock only for
// first-seen values.
type Dict struct {
	mu   sync.RWMutex
	ids  map[Value]int32
	vals []Value

	// order caches the value-sorted permutation of all ids, rebuilt
	// lazily whenever the dictionary has grown since the cached build.
	// It converges once the workload's value set stabilizes, at which
	// point every sorted-domain computation becomes an integer scan
	// instead of a string sort.
	order atomic.Pointer[dictOrder]
}

// dictOrder is one build of the dictionary's sort permutation: byRank[r]
// is the id with the r-th smallest value among the first len(byRank)
// ids.
type dictOrder struct {
	byRank []int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[Value]int32)}
}

// shared is the process-wide dictionary used by every interned
// instance. A single table (rather than per-database tables) keeps ids
// comparable across D, Δ-deltas and Dm, which is what lets the join
// engine and the p(Dm) memo compare keys without translating ids; the
// server's catalog entries inherit it, so cross-request caches stay
// id-compatible too.
var shared = NewDict()

// Shared returns the process-wide dictionary.
func Shared() *Dict { return shared }

// Intern returns the id of v, assigning the next dense id on first
// sight.
func (d *Dict) Intern(v Value) int32 {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[v]; ok {
		return id
	}
	id = int32(len(d.vals))
	if id < 0 {
		panic("relation: dictionary overflow (2^31 distinct values)")
	}
	d.ids[v] = id
	d.vals = append(d.vals, v)
	obs.DictSize.Set(int64(len(d.vals)))
	return id
}

// ID returns the id of v without interning; ok is false when v has
// never been interned.
func (d *Dict) ID(v Value) (int32, bool) {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	return id, ok
}

// Value returns the value of an id. Ids come only from Intern, so an
// out-of-range id is a programming error.
func (d *Dict) Value(id int32) Value {
	d.mu.RLock()
	v := d.vals[id]
	d.mu.RUnlock()
	return v
}

// Len returns the number of distinct interned values.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// Snapshot returns the current id → value table. The returned slice is
// an immutable prefix of the dictionary (entries are never rewritten),
// so callers may index it freely with any id obtained before the call,
// without further locking.
func (d *Dict) Snapshot() []Value {
	d.mu.RLock()
	s := d.vals
	d.mu.RUnlock()
	return s
}

// sortOrder returns a sort permutation covering every id interned so
// far, rebuilding the cache when the dictionary has grown past the last
// build. The one string sort per growth epoch is what every
// SortedIDValues call amortizes against.
func (d *Dict) sortOrder() *dictOrder {
	ord := d.order.Load()
	vals := d.Snapshot()
	if ord != nil && len(ord.byRank) == len(vals) {
		return ord
	}
	fresh := &dictOrder{byRank: make([]int32, len(vals))}
	for i := range fresh.byRank {
		fresh.byRank[i] = int32(i)
	}
	sort.Slice(fresh.byRank, func(i, j int) bool { return vals[fresh.byRank[i]] < vals[fresh.byRank[j]] })
	d.order.Store(fresh)
	return fresh
}

// SetIDBit marks id in a []uint64 bitset over dictionary ids, growing
// the slice as needed, and returns the (possibly reallocated) set.
func SetIDBit(bits []uint64, id int32) []uint64 {
	w := int(id >> 6)
	for w >= len(bits) {
		bits = append(bits, 0)
	}
	bits[w] |= 1 << (uint(id) & 63)
	return bits
}

// HasIDBit reports whether id is set in the bitset.
func HasIDBit(bits []uint64, id int32) bool {
	w := int(id >> 6)
	return w < len(bits) && bits[w]&(1<<(uint(id)&63)) != 0
}

// CountIDBits returns the number of set ids.
func CountIDBits(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// SortedIDValues returns the values of the set ids in ascending value
// order. It scans the cached sort permutation instead of sorting, so
// after the dictionary stabilizes the cost is linear in the dictionary
// size with no string comparisons — the interned replacement for
// SortedValues on the decision procedures' Adom and relevant-value
// setup paths.
func (d *Dict) SortedIDValues(set []uint64) []Value {
	ord := d.sortOrder()
	vals := d.Snapshot()
	out := make([]Value, 0, CountIDBits(set))
	for _, id := range ord.byRank {
		if HasIDBit(set, id) {
			out = append(out, vals[id])
		}
	}
	return out
}
