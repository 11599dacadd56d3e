package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// custSchema is the master relation DCust(cid, name, ac, phn) of the
// paper's running example.
func custSchema() *Schema {
	return NewSchema("DCust", Attr("cid"), Attr("name"), Attr("ac"), Attr("phn"))
}

// sameIDTuples reports whether two id-tuple sets hold the same tuples.
func sameIDTuples(a, b *IDTupleSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !b.Has(a.At(i)) {
			return false
		}
	}
	return true
}

// hitsMisses returns the p(Dm) hit and miss counts of running fn.
func hitsMisses(fn func()) (hits, misses int64) {
	h0, m0 := obs.PDmHits.Value(), obs.PDmMisses.Value()
	fn()
	return obs.PDmHits.Value() - h0, obs.PDmMisses.Value() - m0
}

// TestProjectionMemoExtendedByBatch pins the copy-on-write extension:
// after an insert-only batch the memo answers at the new generation
// without a rebuild, holds what a cold rebuild holds, and the set
// handed out before the batch is left as it was.
func TestProjectionMemoExtendedByBatch(t *testing.T) {
	db := NewDatabase(custSchema())
	db.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	in := db.Instance("DCust")
	before := in.ProjectIDSet([]int{0})

	patches0 := obs.PDmPatches.Value()
	ins := []Tuple{T("c2", "Eve", "973", "5550002")}
	if n, _, err := db.ApplyBatch(Batch{Inserts: map[string][]Tuple{"DCust": ins}}); err != nil || n != 1 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if got := obs.PDmPatches.Value() - patches0; got != 1 {
		t.Fatalf("patch counter delta = %d, want 1", got)
	}
	var warm *IDTupleSet
	if hits, misses := hitsMisses(func() { warm = in.ProjectIDSet([]int{0}) }); hits != 1 || misses != 0 {
		t.Fatalf("after the batch: %d hits, %d misses; want 1 hit", hits, misses)
	}
	if cold := in.Clone().ProjectIDSet([]int{0}); !sameIDTuples(warm, cold) || warm.Len() != 2 {
		t.Fatalf("extended memo holds %d tuples, cold rebuild %d", warm.Len(), cold.Len())
	}
	if before.Len() != 1 {
		t.Fatalf("the set handed out before the batch changed: %d tuples", before.Len())
	}
}

// TestProjectionMemoStaleNotExtended pins the generation guard: a memo
// that missed an earlier mutation is not extended by a later batch (it
// would lack that mutation's rows); the next use rebuilds it.
func TestProjectionMemoStaleNotExtended(t *testing.T) {
	db := NewDatabase(custSchema())
	db.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	in := db.Instance("DCust")
	in.ProjectIDSet([]int{0}) // memo at the current generation

	db.MustAdd("DCust", "c2", "Eve", "973", "5550002") // a mutation the memo never saw
	patches0 := obs.PDmPatches.Value()
	ins := []Tuple{T("c3", "Cal", "201", "5550003")}
	if _, _, err := db.ApplyBatch(Batch{Inserts: map[string][]Tuple{"DCust": ins}}); err != nil {
		t.Fatal(err)
	}
	if got := obs.PDmPatches.Value() - patches0; got != 0 {
		t.Fatalf("stale memo was extended (%d patches)", got)
	}
	var set *IDTupleSet
	if _, misses := hitsMisses(func() { set = in.ProjectIDSet([]int{0}) }); misses != 1 {
		t.Fatalf("stale memo served without a rebuild (%d misses)", misses)
	}
	for _, cid := range []string{"c1", "c2", "c3"} {
		if id, ok := Shared().ID(Value(cid)); !ok || !set.Has([]int32{id}) {
			t.Fatalf("rebuilt memo missing %s", cid)
		}
	}
}

// TestProjectionMemoSelective pins selective invalidation: a batch into
// one relation leaves another relation's memo, and the sets it holds,
// untouched.
func TestProjectionMemoSelective(t *testing.T) {
	other := NewSchema("Other", Attr("x"), Attr("y"))
	db := NewDatabase(custSchema(), other)
	db.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	db.MustAdd("Other", "x1", "y1")
	before := db.Instance("Other").ProjectIDSet([]int{1})
	db.Instance("DCust").ProjectIDSet([]int{0})

	ins := []Tuple{T("c2", "Eve", "973", "5550002")}
	if _, _, err := db.ApplyBatch(Batch{Inserts: map[string][]Tuple{"DCust": ins}}); err != nil {
		t.Fatal(err)
	}
	var after *IDTupleSet
	if hits, misses := hitsMisses(func() { after = db.Instance("Other").ProjectIDSet([]int{1}) }); hits != 1 || misses != 0 || after != before {
		t.Fatalf("memo of the untouched relation: %d hits, %d misses, same set %v", hits, misses, after == before)
	}
	if hits, misses := hitsMisses(func() { db.Instance("DCust").ProjectIDSet([]int{0}) }); hits != 1 || misses != 0 {
		t.Fatalf("memo of the batch's relation: %d hits, %d misses; want it extended", hits, misses)
	}
}

// TestProjectionMemoMatchesRebuildRandom runs seeded random insert
// batches — new customers, duplicates of rows already present and rows
// whose projection is already present — interleaved with Remove and
// Add, over projections of widths 0 to 3. After every step the memo
// must hold exactly what a fresh Clone projects, and after an
// insert-only batch it must be served with no miss.
func TestProjectionMemoMatchesRebuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	val := func(p string, n int) string { return fmt.Sprintf("%s%d", p, rng.Intn(n)) }
	row := func() Tuple { return T(val("c", 30), val("n", 4), val("a", 3), val("p", 5)) }
	colLists := [][]int{nil, {0}, {2, 0}, {1, 2, 3}}
	db := NewDatabase(custSchema())
	in := db.Instance("DCust")
	for i := 0; i < 5; i++ {
		db.MustAdd("DCust", string(row()[0]), "n0", "a0", "p0")
	}
	check := func(step int, wantWarm bool) {
		t.Helper()
		for _, cols := range colLists {
			var warm *IDTupleSet
			_, misses := hitsMisses(func() { warm = in.ProjectIDSet(cols) })
			if wantWarm && misses != 0 {
				t.Fatalf("step %d cols %v: memo rebuilt after an insert batch", step, cols)
			}
			if cold := in.Clone().ProjectIDSet(cols); !sameIDTuples(warm, cold) {
				t.Fatalf("step %d cols %v: memo (%d tuples) differs from a rebuild (%d)", step, cols, warm.Len(), cold.Len())
			}
		}
	}
	check(-1, false)
	extended := 0
	for step := 0; step < 60; step++ {
		switch rng.Intn(4) {
		case 0:
			if ts := in.Tuples(); len(ts) > 0 {
				in.Remove(ts[rng.Intn(len(ts))])
			}
			check(step, false)
		case 1:
			db.MustAdd("DCust", string(row()[0]), "n1", "a1", "p1")
			check(step, false)
		default:
			var ins []Tuple
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				ins = append(ins, row())
			}
			if existing := in.Tuples(); rng.Intn(3) == 0 && len(existing) > 0 {
				ins = append(ins, existing[rng.Intn(len(existing))])
			}
			patches0 := obs.PDmPatches.Value()
			if _, _, err := db.ApplyBatch(Batch{Inserts: map[string][]Tuple{"DCust": ins}}); err != nil {
				t.Fatal(err)
			}
			if obs.PDmPatches.Value() > patches0 {
				extended++
			}
			check(step, true)
		}
	}
	if extended == 0 {
		t.Fatal("no batch extended the memo")
	}
}

// TestProjectionMemoConcurrent requests different column lists of one
// quiescent instance from many goroutines at once, two per list, so
// first uses race to publish. Every set handed out must be right, and
// afterwards each list must be a hit. Run under -race via make race.
func TestProjectionMemoConcurrent(t *testing.T) {
	db := NewDatabase(custSchema())
	for i := 0; i < 40; i++ {
		db.MustAdd("DCust", fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i%7), fmt.Sprintf("a%d", i%3), "p")
	}
	in := db.Instance("DCust")
	colLists := [][]int{nil, {0}, {1}, {2}, {3}, {1, 2}, {2, 1}, {0, 1, 2, 3}}
	want := make([]*IDTupleSet, len(colLists))
	for i, cols := range colLists {
		want[i] = in.Clone().ProjectIDSet(cols)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2*len(colLists); g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if got := in.ProjectIDSet(colLists[i]); !sameIDTuples(got, want[i]) {
				t.Errorf("cols %v: %d tuples, want %d", colLists[i], got.Len(), want[i].Len())
			}
		}(g % len(colLists))
	}
	close(start)
	wg.Wait()
	for i, cols := range colLists {
		var got *IDTupleSet
		if hits, misses := hitsMisses(func() { got = in.ProjectIDSet(cols) }); hits != 1 || misses != 0 {
			t.Fatalf("cols %v after the race: %d hits, %d misses", cols, hits, misses)
		}
		if !sameIDTuples(got, want[i]) {
			t.Fatalf("cols %v after the race: wrong set", cols)
		}
	}
}
