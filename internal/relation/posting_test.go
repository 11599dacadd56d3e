package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Reference checks of the posting-set builder: the integer sorts of
// buildPostingBase and buildPostingCol must produce the rank
// permutation and containers of the builder they replaced, kept below
// as test-only reference code.

// refRowLess is the row order of the reference builder: value strings
// compared column by column.
func refRowLess(in *Instance, vals []Value, r1, r2 int32) bool {
	for c := range in.cols {
		if a, b := in.cols[c][r1], in.cols[c][r2]; a != b {
			return vals[a] < vals[b]
		}
	}
	return false
}

// refRank is the reference rank permutation: sort.Slice over refRowLess.
func refRank(in *Instance) []int32 {
	vals := shared.Snapshot()
	rank := make([]int32, in.n)
	for r := range rank {
		rank[r] = int32(r)
	}
	sort.Slice(rank, func(i, j int) bool { return refRowLess(in, vals, rank[i], rank[j]) })
	return rank
}

// refPostingCol is the reference container build: ids counted in a
// map, sorted, and their ranks dealt out in one scan of the
// rank-ordered column, dense ids into a map of Bitsets.
type refPostingCol struct {
	ids, counts, offs, ranks []int32
	dense                    map[int32]*Bitset
}

func refBuildPostingCol(sc []int32, n int) *refPostingCol {
	counts := make(map[int32]int32, 64)
	for _, id := range sc {
		counts[id]++
	}
	ids := make([]int32, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pc := &refPostingCol{ids: ids, counts: make([]int32, len(ids)), offs: make([]int32, len(ids))}
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

// checkPostingSet compares the instance's current posting set with the
// reference builder: rank, rank-ordered columns, distinct counts (read
// before any container exists, and without building one) and, above
// smallIndexRows, every column's containers. It returns the number of
// dense containers seen.
func checkPostingSet(t *testing.T, in *Instance) int {
	t.Helper()
	ix := in.IDs()
	ps := ix.ps
	rank := refRank(in)
	if !slices.Equal(ps.rank, rank) {
		t.Fatalf("%d rows: rank %v, reference %v", in.n, ps.rank, rank)
	}
	dense := 0
	for c := range in.cols {
		want := make([]int32, in.n)
		for k, r := range rank {
			want[k] = in.cols[c][r]
		}
		if !slices.Equal(ps.scols[c], want) {
			t.Fatalf("%d rows: column %d %v, reference %v", in.n, c, ps.scols[c], want)
		}
		ref := refBuildPostingCol(want, in.n)
		if got := ix.Distinct(c); got != len(ref.ids) {
			t.Fatalf("%d rows: Distinct(%d) = %d, reference %d", in.n, c, got, len(ref.ids))
		}
		if c < len(ps.cols) && ps.cols[c].Load() != nil {
			t.Fatalf("%d rows: Distinct(%d) built the column's containers", in.n, c)
		}
		if ix.Small() {
			continue
		}
		pc := in.postingColFor(ps, c)
		if !slices.Equal(pc.ids, ref.ids) || !slices.Equal(pc.counts, ref.counts) ||
			!slices.Equal(pc.offs, ref.offs) || !slices.Equal(pc.ranks, ref.ranks) {
			t.Fatalf("%d rows: column %d containers differ:\n ids %v counts %v offs %v ranks %v\nreference ids %v counts %v offs %v ranks %v",
				in.n, c, pc.ids, pc.counts, pc.offs, pc.ranks, ref.ids, ref.counts, ref.offs, ref.ranks)
		}
		for i, id := range pc.ids {
			var b *Bitset
			if pc.dense != nil {
				b = pc.dense[i]
			}
			if rb := ref.dense[id]; (b == nil) != (rb == nil) ||
				b != nil && (b.n != rb.n || !slices.Equal(b.words, rb.words)) {
				t.Fatalf("%d rows: column %d id %d: bitset differs from the reference", in.n, c, id)
			}
			if b != nil {
				dense++
			}
			p := ix.Postings(c, id)
			if p.N != pc.counts[i] || p.Bits != b {
				t.Fatalf("%d rows: Postings(%d, %d) = %+v", in.n, c, id, p)
			}
		}
		if p := ix.Postings(c, -1); p.N != 0 || p.Ranks != nil || p.Bits != nil {
			t.Fatalf("%d rows: Postings(%d, absent) = %+v", in.n, c, p)
		}
	}
	return dense
}

// postingSchema returns an arity-column schema for the posting tests.
func postingSchema(arity int) *Schema {
	attrs := make([]Attribute, arity)
	for c := range attrs {
		attrs[c] = Attr(fmt.Sprintf("a%d", c))
	}
	return NewSchema("P", attrs...)
}

// checkPostingRows builds an instance from rows twice — added one by
// one, and as a warmed first half plus an insert-only batch of the
// rest, the mutation path's merged set — and compares both with the
// reference. It returns the number of dense containers seen.
func checkPostingRows(t *testing.T, arity int, rows []Tuple) int {
	t.Helper()
	in := NewInstance(postingSchema(arity))
	for _, r := range rows {
		if err := in.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	dense := checkPostingSet(t, in)
	merged := NewInstance(postingSchema(arity))
	half := len(rows) / 2
	for _, r := range rows[:half] {
		if err := merged.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	merged.Warm()
	merged.insertBatch(rows[half:])
	if ps := merged.postings.Load(); len(rows[half:]) > 0 && half > 0 && (ps == nil || ps.gen != merged.gen) {
		t.Fatalf("%d rows: insert batch did not publish a merged set", len(rows))
	}
	checkPostingSet(t, merged)
	return dense
}

// randomPostingRows draws up to n rows of the given arity. Column
// domains vary from a single value to nearly all-distinct (a key), and
// values are named so that their string order differs from their
// dictionary order ("v10" < "v9").
func randomPostingRows(rng *rand.Rand, arity, n int) []Tuple {
	domains := make([]int, arity)
	for c := range domains {
		switch rng.Intn(5) {
		case 0:
			domains[c] = 1
		case 1:
			domains[c] = 2 // dense: every value far above n/16
		case 2:
			domains[c] = 10 * n // mostly distinct
		default:
			domains[c] = 1 + rng.Intn(20)
		}
	}
	var rows []Tuple
	seen := map[string]bool{}
	for tries := 0; len(rows) < n && tries < 4*n; tries++ {
		t := make(Tuple, arity)
		for c := range t {
			t[c] = Value(fmt.Sprintf("v%d", rng.Intn(domains[c])))
		}
		if k := tupleKey(t); !seen[k] {
			seen[k] = true
			rows = append(rows, t)
		}
	}
	return rows
}

// TestPostingSetMatchesReference compares the posting-set builder with
// the reference over sizes on both sides of smallIndexRows, arities 1
// to 6, single-value, dense and key columns, fresh and merged sets.
func TestPostingSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{0, 1, 64, 65, 127, 128, 300, 600}
	for n := 2; n <= 63; n++ {
		sizes = append(sizes, n)
	}
	dense := 0
	for _, n := range sizes {
		for arity := 1; arity <= 6; arity++ {
			dense += checkPostingRows(t, arity, randomPostingRows(rng, arity, n))
		}
	}
	// Keys (a distinct value per row) first, in the middle and last,
	// beside single-value and dense columns.
	for _, n := range []int{24, 25, 200} {
		var last, mid, first []Tuple
		for i := 0; i < n; i++ {
			k, g := fmt.Sprintf("k%d", i), fmt.Sprintf("g%d", i%3)
			last = append(last, T("same", k))
			mid = append(mid, T(g, k, "same"))
			first = append(first, T(k, g, "same"))
		}
		checkPostingRows(t, 2, last)
		dense += checkPostingRows(t, 3, mid)
		dense += checkPostingRows(t, 3, first)
	}
	if dense == 0 {
		t.Fatal("no dense (Bitset) container was compared")
	}
}

// FuzzPostingSet compares the builder with the reference on arbitrary
// instances. The first byte picks the arity (1 to 6), the next arity
// bytes each column's domain size (byte+1, so 0 is a single-value
// column), and the rest are rows, one byte per value.
func FuzzPostingSet(f *testing.F) {
	f.Add([]byte{2, 0, 255, 1, 2, 3, 4})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{30, 200} {
		seed := []byte{3, 1, 15, 255}
		for i := 0; i < n; i++ {
			seed = append(seed, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(i))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity := 1 + int(data[0])%6
		if len(data) < 1+arity {
			return
		}
		mods := data[1 : 1+arity]
		body := data[1+arity:]
		var rows []Tuple
		seen := map[string]bool{}
		for len(body) >= arity {
			t := make(Tuple, arity)
			for c := range t {
				t[c] = Value(fmt.Sprintf("v%d", int(body[c])%(int(mods[c])+1)))
			}
			body = body[arity:]
			if k := tupleKey(t); !seen[k] {
				seen[k] = true
				rows = append(rows, t)
			}
		}
		checkPostingRows(t, arity, rows)
	})
}
