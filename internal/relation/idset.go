package relation

import "fmt"

// IDTupleSet is a set of fixed-width tuples of shared-dictionary ids:
// the form the decision procedures keep id-level answer and master
// sets in (Q(D), p(Dm), the answers of one join). Membership hashes
// the ids as integers and confirms a hash hit by comparing the ids
// themselves, so neither Add nor Has builds a key. Tuples are kept in
// insertion order (see At).
//
// A set is single-goroutine while it is filled; once filled, Has, Len
// and At are read-only and may be called from many goroutines.
type IDTupleSet struct {
	width int
	ids   []int32 // the tuples, width ids each, in insertion order
	n     int
	// table is the open-addressing hash table (linear probing): each
	// slot holds 1 + the index of a tuple, 0 when empty. Its length is
	// a power of two, at least twice n; nil while the set is empty.
	table []int32
}

// NewIDTupleSet returns an empty set of tuples of the given width,
// with room for about hint tuples before it grows.
func NewIDTupleSet(width, hint int) *IDTupleSet {
	s := &IDTupleSet{width: width}
	if hint > 0 {
		s.ids = make([]int32, 0, hint*width)
		s.table = make([]int32, tableSize(hint))
	}
	return s
}

// tableSize is the smallest power of two, at least 8, that holds n
// tuples at a load factor of at most one half.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// hashIDs mixes the ids of one tuple into a 64-bit hash: a
// multiply-xor step per id and a final avalanche, so tuples that differ
// in any id spread over the whole table. Instance.hashRow computes the
// same hash from a row's columns.
func hashIDs(ids []int32) uint64 {
	h := hashSeed(len(ids))
	for _, id := range ids {
		h = hashMix(h, id)
	}
	return hashFinal(h)
}

// hashSeed, hashMix and hashFinal are the three steps of hashIDs.
func hashSeed(width int) uint64 { return uint64(width)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019 }

func hashMix(h uint64, id int32) uint64 {
	h = (h ^ uint64(uint32(id))) * 0xff51afd7ed558ccd
	return h ^ h>>29
}

func hashFinal(h uint64) uint64 {
	h ^= h >> 32
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Len returns the number of tuples.
func (s *IDTupleSet) Len() int { return s.n }

// At returns the i-th tuple added, 0 ≤ i < Len. Callers must not
// modify it.
func (s *IDTupleSet) At(i int) []int32 {
	return s.ids[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// find returns the table slot holding ids, or the empty slot where
// they would go; the table must be non-nil.
func (s *IDTupleSet) find(ids []int32) (slot int, found bool) {
	mask := len(s.table) - 1
	for i := int(hashIDs(ids)) & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return i, false
		}
		if s.equalAt(int(e-1), ids) {
			return i, true
		}
	}
}

// equalAt reports whether tuple i holds exactly ids.
func (s *IDTupleSet) equalAt(i int, ids []int32) bool {
	t := s.ids[i*s.width : (i+1)*s.width]
	for c, id := range ids {
		if t[c] != id {
			return false
		}
	}
	return true
}

// Has reports whether the set holds ids. A tuple of another width is
// never a member.
func (s *IDTupleSet) Has(ids []int32) bool {
	if s.n == 0 || len(ids) != s.width {
		return false
	}
	_, found := s.find(ids)
	return found
}

// Add inserts a copy of ids and reports whether it was new. It panics
// when the width differs from the set's.
func (s *IDTupleSet) Add(ids []int32) bool {
	if len(ids) != s.width {
		panic(fmt.Sprintf("relation: %d-id tuple added to a set of width %d", len(ids), s.width))
	}
	if 2*(s.n+1) > len(s.table) {
		s.grow()
	}
	slot, found := s.find(ids)
	if found {
		return false
	}
	s.ids = append(s.ids, ids...)
	s.n++
	s.table[slot] = int32(s.n)
	return true
}

// grow doubles the table (or allocates the first one) and reinserts
// every tuple.
func (s *IDTupleSet) grow() {
	s.table = make([]int32, tableSize(s.n+1))
	mask := len(s.table) - 1
	for i := 0; i < s.n; i++ {
		slot := int(hashIDs(s.At(i))) & mask
		for s.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = int32(i + 1)
	}
}

// Clone returns an independent copy of the set, with room for extra
// more tuples before it grows.
func (s *IDTupleSet) Clone(extra int) *IDTupleSet {
	cp := NewIDTupleSet(s.width, s.n+extra)
	for i := 0; i < s.n; i++ {
		cp.Add(s.At(i))
	}
	return cp
}
