package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
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
// length crosses smallIndexRows, so both the small-instance and the
// posting-container paths are hit.
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
				_, dup := model[tupleKey(tu)]
				if dup != (in.Generation() == gen) {
					t.Fatalf("trial %d op %d: Add(%v) generation bump %v, duplicate %v", trial, op, tu, in.Generation() != gen, dup)
				}
				model[tupleKey(tu)] = tu.Clone()
			case 5: // remove (often a miss)
				tu := rt()
				in.Remove(tu)
				delete(model, tupleKey(tu))
			case 6: // membership
				tu := rt()
				if _, want := model[tupleKey(tu)]; in.Contains(tu) != want {
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
					proj[tupleKey(p)] = p
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
			model[rel][tupleKey(tu)] = tu
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

// checkRowIndex asserts the row index's invariants: the table is a
// power of two at least twice the row count, it holds exactly one
// entry per row, and every row is found from its home slot.
func checkRowIndex(t *testing.T, in *Instance) {
	t.Helper()
	if in.n == 0 && in.index == nil {
		return
	}
	if m := len(in.index); m&(m-1) != 0 || m < 2*in.n {
		t.Fatalf("row index of %d slots for %d rows", m, in.n)
	}
	seen := make([]bool, in.n)
	for _, e := range in.index {
		if e == 0 {
			continue
		}
		if r := e - 1; int(r) >= in.n || seen[r] {
			t.Fatalf("row index entry %d: stale or repeated (n = %d)", e, in.n)
		} else {
			seen[r] = true
		}
	}
	ids := make([]int32, len(in.cols))
	for r := 0; r < in.n; r++ {
		if !seen[r] {
			t.Fatalf("row %d missing from the row index", r)
		}
		for c := range in.cols {
			ids[c] = in.cols[c][r]
		}
		if slot, found := in.findIDs(ids); !found || in.index[slot] != int32(r+1) {
			t.Fatalf("row %d not reachable from its home slot", r)
		}
	}
}

// wrapsOnDelete reports whether deleting the row at slot shifts a probe
// run that continues past the end of the table back to its start.
func wrapsOnDelete(in *Instance, slot int) bool {
	for j := slot + 1; ; j++ {
		if j == len(in.index) {
			return in.index[0] != 0
		}
		if in.index[j] == 0 {
			return false
		}
	}
}

// TestRowIndexMatchesModel drives the open-addressing row index
// through growth, remove-heavy phases, Clone, SubsetOf/Equal and
// Reset followed by a refill, at arities 1 to 4 and one above
// inlineArity, comparing every observation with the map model. Each
// script grows an instance past 300 rows (several table doublings),
// then removes most of it; wrap rounds then fill the table's last slot
// and spill rows over to its start, so backward-shift deletion must
// move entries from the start back to the end.
func TestRowIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	wraps := 0
	for _, arity := range []int{1, 2, 3, 4, inlineArity + 1} {
		attrs := make([]Attribute, arity)
		for i := range attrs {
			attrs[i] = Attr(fmt.Sprintf("a%d", i))
		}
		s := NewSchema("R", attrs...)
		pool := 24 // 24^arity tuples leave room for 300 distinct rows
		if arity == 1 {
			pool = 600
		}
		rt := func() Tuple {
			tu := make(Tuple, arity)
			for i := range tu {
				tu[i] = Value(fmt.Sprintf("r%d", rng.Intn(pool)))
			}
			return tu
		}
		for trial := 0; trial < 4; trial++ {
			in := NewInstance(s)
			model := map[string]Tuple{}
			add := func(tu Tuple) {
				gen := in.Generation()
				in.MustAdd(tu)
				_, dup := model[tupleKey(tu)]
				if dup != (in.Generation() == gen) {
					t.Fatalf("arity %d: Add(%v) generation bump %v, duplicate %v", arity, tu, in.Generation() != gen, dup)
				}
				model[tupleKey(tu)] = tu
			}
			remove := func(tu Tuple) {
				if ids, ok := idsOf(tu); ok && in.n > 0 {
					if slot, found := in.findIDs(ids); found && wrapsOnDelete(in, slot) {
						wraps++
					}
				}
				in.Remove(tu)
				delete(model, tupleKey(tu))
			}
			agree := func(phase string) {
				t.Helper()
				if in.Len() != len(model) {
					t.Fatalf("arity %d trial %d %s: Len = %d, want %d", arity, trial, phase, in.Len(), len(model))
				}
				for _, tu := range model {
					if !in.Contains(tu) {
						t.Fatalf("arity %d trial %d %s: model tuple %v missing", arity, trial, phase, tu)
					}
				}
				for i := 0; i < 50; i++ {
					tu := rt()
					if _, want := model[tupleKey(tu)]; in.Contains(tu) != want {
						t.Fatalf("arity %d trial %d %s: Contains(%v) = %v", arity, trial, phase, tu, !want)
					}
				}
				checkRowIndex(t, in)
			}

			// Grow past 300 rows, duplicates included.
			for len(model) < 320 {
				add(rt())
			}
			agree("grow")
			// Remove-heavy: drop about nine in ten rows (the present ones
			// and random misses), with a few adds between.
			for len(model) > 32 {
				switch rng.Intn(8) {
				case 0:
					add(rt())
				case 1:
					remove(rt())
				default:
					remove(rowTuple(in, int32(rng.Intn(in.n))))
				}
			}
			agree("shrink")
			// Wrap rounds: three fresh rows homed at the table's last slot
			// and one homed at slot 0 fill the end and spill over to the
			// start; deleting the first moves the spilled ones back.
			homedAt := func(slot int) Tuple {
				mask := len(in.index) - 1
				tu := rt()
				ids := make([]int32, arity)
				for i, v := range tu {
					ids[i] = Shared().Intern(v)
				}
				for k := 0; ; k++ {
					tu[0] = Value("w" + strconv.Itoa(k)) // the pool may miss the slot
					ids[0] = Shared().Intern(tu[0])
					if int(hashIDs(ids))&mask != slot {
						continue
					}
					if _, dup := model[tupleKey(tu)]; !dup {
						return tu
					}
				}
			}
			for round := 0; round < 8; round++ {
				last := len(in.index) - 1
				run := []Tuple{homedAt(last), homedAt(last), homedAt(last), homedAt(0)}
				for _, tu := range run {
					add(tu)
				}
				remove(run[0])
				agree("wrap")
				for _, tu := range run[1:] {
					remove(tu)
				}
			}
			if got, want := in.Tuples(), modelSorted(model); !sameTuples(got, want) {
				t.Fatalf("arity %d trial %d: Tuples = %v, want %v", arity, trial, got, want)
			}

			// Clone: equal to its source, then independent of it.
			cp := in.Clone()
			if !cp.Equal(in) || !in.Equal(cp) || !sameTuples(cp.Tuples(), modelSorted(model)) {
				t.Fatalf("arity %d trial %d: clone differs from its source", arity, trial)
			}
			checkRowIndex(t, cp)
			victim := in.Tuples()[0].Clone()
			cp.Remove(victim)
			if !in.Contains(victim) || cp.Contains(victim) || !cp.SubsetOf(in) || in.SubsetOf(cp) || cp.Equal(in) {
				t.Fatalf("arity %d trial %d: clone not independent of its source", arity, trial)
			}
			fresh := rt()
			for _, dup := model[tupleKey(fresh)]; dup; _, dup = model[tupleKey(fresh)] {
				fresh = rt()
			}
			cp.MustAdd(fresh)
			if cp.SubsetOf(in) || in.SubsetOf(cp) || in.Contains(fresh) {
				t.Fatalf("arity %d trial %d: incomparable instances reported as subsets", arity, trial)
			}

			// A copy built in reverse order is Equal.
			rev := NewInstance(s)
			ts := modelSorted(model)
			for i := len(ts) - 1; i >= 0; i-- {
				rev.MustAdd(ts[i])
			}
			if !rev.Equal(in) || !in.Equal(rev) || !rev.SubsetOf(in) {
				t.Fatalf("arity %d trial %d: reverse-built copy not Equal", arity, trial)
			}

			// Reset keeps the table; a refill with fresh tuples must match
			// a fresh model.
			in.Reset()
			model = map[string]Tuple{}
			agree("reset")
			for len(model) < 150 {
				add(rt())
			}
			agree("refill")
			if got, want := in.Tuples(), modelSorted(model); !sameTuples(got, want) {
				t.Fatalf("arity %d trial %d: refilled Tuples = %v, want %v", arity, trial, got, want)
			}
		}
	}
	if wraps < 20*8/2 {
		t.Fatalf("%d deletions shifted a probe run across the end of the table, want at least %d", wraps, 20*8/2)
	}
}

// rowTuple materializes row r of in.
func rowTuple(in *Instance, r int32) Tuple {
	vals := Shared().Snapshot()
	tu := make(Tuple, len(in.cols))
	for c := range in.cols {
		tu[c] = vals[in.cols[c][r]]
	}
	return tu
}

// idsOf returns the shared-dictionary ids of tu, ok false when some
// value was never interned.
func idsOf(tu Tuple) ([]int32, bool) {
	ids := make([]int32, len(tu))
	for i, v := range tu {
		id, ok := Shared().ID(v)
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}
