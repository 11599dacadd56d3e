package relation

import (
	"math/rand"
	"sort"
	"testing"
)

// Model-based checks of the columnar Instance and Database: a plain
// map of Tuple.Key → Tuple, sorted with Tuple.Less, is the reference
// every observation is compared against.

// modelSorted returns the model's tuples in Tuple.Less order.
func modelSorted(m map[string]Tuple) []Tuple {
	out := make([]Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestInstanceMatchesModel replays a random op script against an
// instance and the map model and compares every observation. The script
// length crosses linearRowsMax and smallIndexRows so both the map-free
// linear-scan path and the row-map/posting paths are hit.
func TestInstanceMatchesModel(t *testing.T) {
	s := NewSchema("R", Attr("a"), Attr("b"), Attr("c"))
	vals := []string{"u", "v", "w", "x", "y"}
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 40; trial++ {
		in := NewInstance(s)
		model := map[string]Tuple{}
		rt := func() Tuple {
			return Tuple{Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)])}
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // add (duplicates included)
				tu := rt()
				gen := in.Generation()
				if err := in.Add(tu); err != nil {
					t.Fatalf("trial %d op %d: Add(%v): %v", trial, op, tu, err)
				}
				_, dup := model[tu.Key()]
				if dup != (in.Generation() == gen) {
					t.Fatalf("trial %d op %d: Add(%v) generation bump %v, duplicate %v", trial, op, tu, in.Generation() != gen, dup)
				}
				model[tu.Key()] = tu.Clone()
			case 5: // remove (often a miss)
				tu := rt()
				in.Remove(tu)
				delete(model, tu.Key())
			case 6: // membership
				tu := rt()
				if _, want := model[tu.Key()]; in.Contains(tu) != want {
					t.Fatalf("trial %d op %d: Contains(%v) = %v, want %v", trial, op, tu, !want, want)
				}
			case 7: // index probe on a random column
				col := rng.Intn(3)
				v := Value(vals[rng.Intn(5)])
				var want []Tuple
				for _, tu := range modelSorted(model) {
					if tu[col] == v {
						want = append(want, tu)
					}
				}
				if got := probe(in, col, v); !sameTuples(got, want) {
					t.Fatalf("trial %d op %d: probe(%d, %q) = %v, want %v", trial, op, col, v, got, want)
				}
			case 8: // distinct count on a random column
				col := rng.Intn(3)
				seen := map[Value]bool{}
				for _, tu := range model {
					seen[tu[col]] = true
				}
				if got := in.Distinct(col); got != len(seen) {
					t.Fatalf("trial %d op %d: Distinct(%d) = %d, want %d", trial, op, col, got, len(seen))
				}
			case 9: // projection
				cols := []int{rng.Intn(3), rng.Intn(3)}
				proj := map[string]Tuple{}
				for _, tu := range model {
					p := tu.Project(cols)
					proj[p.Key()] = p
				}
				if got, want := in.Project(cols), modelSorted(proj); !sameTuples(got, want) {
					t.Fatalf("trial %d op %d: Project(%v) = %v, want %v", trial, op, cols, got, want)
				}
			}
			if in.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, in.Len(), len(model))
			}
		}
		if got, want := in.Tuples(), modelSorted(model); !sameTuples(got, want) {
			t.Fatalf("trial %d: Tuples = %v, want %v", trial, got, want)
		}
		cp := in.Clone()
		if !cp.Equal(in) || !in.Equal(cp) || !sameTuples(cp.Tuples(), in.Tuples()) {
			t.Fatalf("trial %d: clone differs from its source", trial)
		}
	}
}

// TestDatabaseMatchesModel checks database-level observations — the
// active domain's id-bitset scan, SubsetOf/Equal and TupleCount —
// against the map model, with one finite-domain relation mixed in.
func TestDatabaseMatchesModel(t *testing.T) {
	r := NewSchema("R", Attr("a"), Attr("b"))
	f := NewSchema("F", FinAttr("p", "0", "1"))
	rng := rand.New(rand.NewSource(23))
	vals := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		db := NewDatabase(r, f)
		model := map[string]map[string]Tuple{"R": {}, "F": {}}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			rel, tu := "R", T(vals[rng.Intn(4)], vals[rng.Intn(4)])
			if rng.Intn(4) == 0 {
				rel, tu = "F", T([]string{"0", "1"}[rng.Intn(2)])
			}
			db.MustAdd(rel, tupleStrings(tu)...)
			model[rel][tu.Key()] = tu
		}
		seen := map[Value]bool{}
		count := 0
		for _, m := range model {
			count += len(m)
			for _, tu := range m {
				for _, v := range tu {
					seen[v] = true
				}
			}
		}
		if got, want := db.ActiveDomain(), SortedValues(seen); len(got) != len(want) {
			t.Fatalf("trial %d: ActiveDomain = %v, want %v", trial, got, want)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: ActiveDomain[%d] = %q, want %q", trial, i, got[i], want[i])
				}
			}
		}
		if db.TupleCount() != count {
			t.Fatalf("trial %d: TupleCount = %d, want %d", trial, db.TupleCount(), count)
		}
		// A copy rebuilt in reverse order is set-equal; dropping one
		// tuple makes it a strict subset.
		cp := NewDatabase(r, f)
		for rel, m := range model {
			ts := modelSorted(m)
			for i := len(ts) - 1; i >= 0; i-- {
				cp.MustAdd(rel, tupleStrings(ts[i])...)
			}
		}
		if !db.Equal(cp) || !cp.Equal(db) || !db.SubsetOf(cp) {
			t.Fatalf("trial %d: rebuilt copy not Equal", trial)
		}
		if ts := cp.Instance("R").Tuples(); len(ts) > 0 {
			cp.Instance("R").Remove(ts[rng.Intn(len(ts))].Clone())
			if !cp.SubsetOf(db) || db.SubsetOf(cp) || db.Equal(cp) {
				t.Fatalf("trial %d: strict subset misreported", trial)
			}
		}
	}
}
