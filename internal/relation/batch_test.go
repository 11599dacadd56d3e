package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchSchemas builds the two-relation schema pair the batch tests run
// over, including one finite-domain attribute to exercise validation.
func batchSchemas() (*Schema, *Schema) {
	r := NewSchema("R", Attr("a"), Attr("b"))
	s := NewSchema("S", Attr("b"), FinAttr("f", "0", "1"))
	return r, s
}

// probe returns the tuples whose column col holds v the way the join
// engine in internal/cq reads them: through the IDIndex view, scanning
// the rank-ordered column on small instances and walking the posting
// container otherwise, in ascending rank (Tuples() order).
func probe(in *Instance, col int, v Value) []Tuple {
	id, ok := Shared().ID(v)
	if !ok {
		return nil
	}
	ix := in.IDs()
	all := in.Tuples()
	var out []Tuple
	if ix.Small() {
		for r, got := range ix.Col(col) {
			if got == id {
				out = append(out, all[r])
			}
		}
		return out
	}
	p := ix.Postings(col, id)
	if p.Bits != nil {
		p.Bits.ForEach(func(r int32) bool {
			out = append(out, all[r])
			return true
		})
	} else {
		for _, r := range p.Ranks {
			out = append(out, all[r])
		}
	}
	if int32(len(out)) != p.N {
		panic(fmt.Sprintf("posting count %d, enumerated %d", p.N, len(out)))
	}
	return out
}

// TestApplyBatchMatchesModel cross-validates ApplyBatch against a plain
// map model over randomized mutation scripts: after every batch the
// database must hold exactly the model's tuples, in the deterministic
// Tuples() order a scratch-built copy produces, and every index probe
// must return the matching subsequence of that order.
func TestApplyBatchMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs, ss := batchSchemas()
	db := NewDatabase(rs, ss)
	model := map[string]map[string]Tuple{"R": {}, "S": {}}

	vals := []string{"a", "b", "c", "d"}
	rv := func() Value { return Value(vals[rng.Intn(len(vals))]) }
	randTuple := func(rel string) Tuple {
		if rel == "R" {
			if rng.Intn(8) == 0 {
				// Occasionally a brand-new value, so batches grow the
				// dictionary and the active domain.
				return Tuple{Value(fmt.Sprintf("n%d", rng.Intn(1000))), rv()}
			}
			return Tuple{rv(), rv()}
		}
		return Tuple{rv(), Value(fmt.Sprintf("%d", rng.Intn(2)))}
	}

	for step := 0; step < 200; step++ {
		b := Batch{Inserts: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			rel := []string{"R", "S"}[rng.Intn(2)]
			b.Inserts[rel] = append(b.Inserts[rel], randTuple(rel))
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			rel := []string{"R", "S"}[rng.Intn(2)]
			// Mix deletes of present tuples with misses.
			if ts := db.Instance(rel).Tuples(); len(ts) > 0 && rng.Intn(2) == 0 {
				b.Deletes[rel] = append(b.Deletes[rel], ts[rng.Intn(len(ts))].Clone())
			} else {
				b.Deletes[rel] = append(b.Deletes[rel], randTuple(rel))
			}
		}
		// Warm indexes on some steps so patches hit live posting sets.
		if rng.Intn(2) == 0 {
			db.Warm()
		}

		ins, del, err := db.ApplyBatch(b)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Model: inserts before deletes, duplicates/misses as no-ops.
		wantIns, wantDel := 0, 0
		for rel, ts := range b.Inserts {
			for _, tu := range ts {
				if k := tu.Key(); !has(model[rel], k) {
					model[rel][k] = tu.Clone()
					wantIns++
				}
			}
		}
		for rel, ts := range b.Deletes {
			for _, tu := range ts {
				if k := tu.Key(); has(model[rel], k) {
					delete(model[rel], k)
					wantDel++
				}
			}
		}
		if ins != wantIns || del != wantDel {
			t.Fatalf("step %d: counts (%d,%d), want (%d,%d)",
				step, ins, del, wantIns, wantDel)
		}

		// Scratch-built copy is the enumeration-order oracle.
		scratch := NewDatabase(rs, ss)
		for rel, m := range model {
			for _, tu := range m {
				scratch.MustAdd(rel, tupleStrings(tu)...)
			}
		}
		for _, rel := range db.Relations() {
			got, want := db.Instance(rel).Tuples(), scratch.Instance(rel).Tuples()
			if len(got) != len(want) {
				t.Fatalf("step %d: %s has %d tuples, want %d",
					step, rel, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("step %d: %s tuple order diverges at %d: %v vs %v",
						step, rel, i, got[i], want[i])
				}
			}
			// Index probes must return the filtered scan of the
			// scratch build, in scan order.
			for col := 0; col < db.Schema(rel).Arity(); col++ {
				for _, tu := range want {
					var w []Tuple
					for _, o := range want {
						if o[col] == tu[col] {
							w = append(w, o)
						}
					}
					g := probe(db.Instance(rel), col, tu[col])
					if len(g) != len(w) {
						t.Fatalf("step %d: %s probe(%d,%q) sizes %d vs %d",
							step, rel, col, tu[col], len(g), len(w))
					}
					for i := range g {
						if !g[i].Equal(w[i]) {
							t.Fatalf("step %d: %s probe(%d,%q) diverges at %d",
								step, rel, col, tu[col], i)
						}
					}
				}
			}
		}
	}
}

func has(m map[string]Tuple, k string) bool { _, ok := m[k]; return ok }

func tupleStrings(t Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = string(v)
	}
	return out
}

// TestInsertBatchPatchesPostings pins the incremental index path: an
// insert-only batch against a warmed instance publishes a
// merged posting set for the new generation eagerly (no cold rebuild on
// next access), and that merged set is identical to a from-scratch
// build. A batch with deletes leaves the index to the lazy rebuild.
func TestInsertBatchPatchesPostings(t *testing.T) {
	rs, ss := batchSchemas()
	db := NewDatabase(rs, ss)
	for i := 0; i < 40; i++ {
		db.MustAdd("R", fmt.Sprintf("k%02d", i%7), fmt.Sprintf("v%02d", i))
	}
	in := db.Instance("R")
	in.Warm()
	if ps := in.postings.Load(); ps == nil || ps.gen != in.gen {
		t.Fatal("warm-up did not publish a current posting set")
	}

	batch := Batch{Inserts: map[string][]Tuple{"R": {
		T("k03", "zz1"), T("aa0", "v05"), T("k03", "v03"), // duplicate of row 3+... mixed order
	}}}
	ins, _, err := db.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ins == 0 {
		t.Fatal("batch inserted nothing")
	}
	ps := in.postings.Load()
	if ps == nil || ps.gen != in.gen {
		t.Fatalf("insert-only batch did not publish a patched posting set (gen %d vs %d)",
			ps.gen, in.gen)
	}
	// The patched set must equal a from-scratch build, rank for rank.
	want := in.buildPostingBase()
	if len(ps.rank) != len(want.rank) {
		t.Fatalf("patched rank length %d, want %d", len(ps.rank), len(want.rank))
	}
	for i := range ps.rank {
		if ps.rank[i] != want.rank[i] {
			t.Fatalf("patched rank diverges at %d: %d vs %d", i, ps.rank[i], want.rank[i])
		}
	}
	for c := range ps.scols {
		for i := range ps.scols[c] {
			if ps.scols[c][i] != want.scols[c][i] {
				t.Fatalf("patched scols[%d] diverges at %d", c, i)
			}
		}
	}

	// Deletes invalidate: the published set goes stale and the next
	// access rebuilds at the new generation.
	if _, del, err := db.ApplyBatch(Batch{Deletes: map[string][]Tuple{"R": {T("aa0", "v05")}}}); err != nil || del != 1 {
		t.Fatalf("delete batch: del=%d err=%v", del, err)
	}
	if ps := in.postings.Load(); ps != nil && ps.gen == in.gen {
		t.Fatal("delete batch unexpectedly patched the posting set in place")
	}
	in.Warm()
	if ps := in.postings.Load(); ps == nil || ps.gen != in.gen {
		t.Fatal("posting set did not rebuild after delete batch")
	}
}

// TestApplyBatchAtomic pins validate-before-apply: a batch containing
// any malformed tuple errors out without touching the database.
func TestApplyBatchAtomic(t *testing.T) {
	rs, ss := batchSchemas()
	db := NewDatabase(rs, ss)
	db.MustAdd("R", "a", "b")
	gen0 := db.Instance("R").Generation()

	cases := []Batch{
		{Inserts: map[string][]Tuple{"R": {T("x", "y")}, "Nope": {T("z")}}},
		{Inserts: map[string][]Tuple{"R": {T("x", "y"), T("too", "many", "cols")}}},
		{Inserts: map[string][]Tuple{"S": {T("b", "9")}}}, // 9 outside {0,1}
		{Inserts: map[string][]Tuple{"R": {T("x", "y")}},
			Deletes: map[string][]Tuple{"R": {T("short")}}},
	}
	for i, b := range cases {
		if _, _, err := db.ApplyBatch(b); err == nil {
			t.Fatalf("case %d: batch unexpectedly applied", i)
		}
		if db.Instance("R").Generation() != gen0 || db.Instance("R").Len() != 1 || db.Instance("S").Len() != 0 {
			t.Fatalf("case %d: failed batch mutated the database", i)
		}
	}

	// Insert-then-delete of the same fresh tuple within one batch:
	// both sides count, the net effect is absence.
	ins, del, err := db.ApplyBatch(Batch{
		Inserts: map[string][]Tuple{"R": {T("new", "row")}},
		Deletes: map[string][]Tuple{"R": {T("new", "row")}},
	})
	if err != nil || ins != 1 || del != 1 || db.Instance("R").Contains(T("new", "row")) {
		t.Fatalf("insert+delete: ins=%d del=%d err=%v", ins, del, err)
	}
}
