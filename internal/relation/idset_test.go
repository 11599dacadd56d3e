package relation

import (
	"math/rand"
	"testing"
)

// appendIDKey appends the fixed-width big-endian encoding of an id
// tuple: four bytes per id, so the encoding is collision-free for a
// fixed width. The model tests key their reference maps on it.
func appendIDKey(dst []byte, ids []int32) []byte {
	for _, id := range ids {
		u := uint32(id)
		dst = append(dst, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

// TestIDTupleSetMatchesKeyMap is the model test of IDTupleSet: on
// seeded random tuples of widths 0 to 5 (the empty projection
// included), with ids drawn from a small range so inserts repeat, every
// Add reports newness and every Has — of inserted and of absent tuples,
// tuples of another width among them — answers exactly as a
// map[string]bool of appendIDKey keys does. Len follows the map, At
// returns the tuples in insertion order, and a Clone answers like the
// set it was cloned from and is independent of it.
func TestIDTupleSetMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tuple := func(width, ids int) []int32 {
		tu := make([]int32, width)
		for i := range tu {
			tu[i] = int32(rng.Intn(ids))
		}
		return tu
	}
	for trial := 0; trial < 300; trial++ {
		width := trial % 6
		ids := 1 + rng.Intn(12)
		set := NewIDTupleSet(width, rng.Intn(4))
		model := map[string]bool{}
		var order [][]int32
		for op, n := 0, rng.Intn(400); op < n; op++ {
			tu := tuple(width, ids)
			key := string(appendIDKey(nil, tu))
			if rng.Intn(3) > 0 {
				if got, want := set.Add(tu), !model[key]; got != want {
					t.Fatalf("trial %d: Add(%v) = %v, model %v", trial, tu, got, want)
				}
				if !model[key] {
					order = append(order, append([]int32(nil), tu...))
				}
				model[key] = true
				if width > 0 {
					tu[0] = -1 // the set keeps a copy, not the caller's slice
				}
			} else {
				// Probe with ids outside the inserted range too.
				probe := tuple(width, ids+2)
				if got, want := set.Has(probe), model[string(appendIDKey(nil, probe))]; got != want {
					t.Fatalf("trial %d: Has(%v) = %v, model %v", trial, probe, got, want)
				}
			}
			if set.Has(tuple(width+1, ids)) {
				t.Fatalf("trial %d: a tuple of width %d is a member of a width-%d set", trial, width+1, width)
			}
		}
		if set.Len() != len(model) {
			t.Fatalf("trial %d: Len %d, model %d tuples", trial, set.Len(), len(model))
		}
		for i, tu := range order {
			if string(appendIDKey(nil, set.At(i))) != string(appendIDKey(nil, tu)) {
				t.Fatalf("trial %d: At(%d) = %v, inserted %v", trial, i, set.At(i), tu)
			}
		}
		cp := set.Clone(rng.Intn(3))
		for _, tu := range order {
			if !cp.Has(tu) || !set.Has(tu) {
				t.Fatalf("trial %d: set or clone lost %v", trial, tu)
			}
		}
		if width == 0 {
			continue // the one empty tuple: nothing fresh to add
		}
		fresh := make([]int32, width)
		for i := range fresh {
			fresh[i] = int32(ids + 5)
		}
		cp.Add(fresh)
		if set.Has(fresh) || !cp.Has(fresh) || cp.Len() != set.Len()+1 {
			t.Fatalf("trial %d: clone is not independent of its source", trial)
		}
	}
}
