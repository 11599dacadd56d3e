package cc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

// atMostViolated is the brute-force reading of AtMostK over d: some
// value of the key columns holds more than k distinct values of the
// counted column.
func atMostViolated(d *relation.Database, rel string, keyCols []int, counted, k int) bool {
	seen := map[string]map[relation.Value]bool{}
	for _, tu := range d.Instance(rel).Tuples() {
		var key strings.Builder
		for _, c := range keyCols {
			fmt.Fprintf(&key, "%q,", tu[c])
		}
		vals := seen[key.String()]
		if vals == nil {
			vals = map[relation.Value]bool{}
			seen[key.String()] = vals
		}
		vals[tu[counted]] = true
		if len(vals) > k {
			return true
		}
	}
	return false
}

// TestAtMostKMatchesBruteForce compares Set.SatisfiedGate on seeded
// random AtMostK sets — one or two key columns, k = 1–4 — with the
// brute-force count over Supt instances on both sides of the join's
// small-view threshold (24 rows), with about one to five rows per key
// so that every k is met, reached and exceeded. The satisfied sets run
// the join to its end, which the cardinality cut of the cq join prunes
// (see DESIGN.md, "Cardinality cut"); both verdicts must occur on each
// side of the threshold.
func TestAtMostKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	verdicts := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		d, dm := crmSchemas()
		n := 3 + rng.Intn(22)
		if rng.Intn(2) == 0 {
			n = 25 + rng.Intn(40)
		}
		keys := max(1, n/(1+rng.Intn(5)))
		for i := 0; i < n; i++ {
			d.MustAdd("Supt", fmt.Sprintf("e%d", rng.Intn(keys)), fmt.Sprintf("s%d", rng.Intn(2)), fmt.Sprintf("c%d", rng.Intn(6)))
		}
		keyCols, counted := []int{0}, 2
		switch rng.Intn(3) {
		case 1:
			keyCols = []int{0, 1}
		case 2:
			counted = 1 // at most k departments per employee
		}
		k := 1 + rng.Intn(4)
		set := NewSet(AtMostK("atmost", "Supt", 3, keyCols, counted, k))
		want := !atMostViolated(d, "Supt", keyCols, counted, k)
		if rng.Intn(4) == 0 {
			// A second bound over the other counted column.
			k2 := 1 + rng.Intn(4)
			set = NewSet(set.Constraints[0], AtMostK("atmost2", "Supt", 3, []int{0}, 3-counted, k2))
			want = want && !atMostViolated(d, "Supt", []int{0}, 3-counted, k2)
		}
		got, err := set.SatisfiedGate(d, dm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: SatisfiedGate = %v, brute force %v (keys %v, counted %d, k %d)\nD:\n%v", trial, got, want, keyCols, counted, k, d)
		}
		verdicts[fmt.Sprintf("small=%v satisfied=%v", d.Instance("Supt").IDs().Small(), got)]++
	}
	t.Logf("cases: %v", verdicts)
	for _, small := range []bool{true, false} {
		for _, sat := range []bool{true, false} {
			if c := verdicts[fmt.Sprintf("small=%v satisfied=%v", small, sat)]; c < 30 {
				t.Errorf("%d cases with small=%v satisfied=%v; want at least 30", c, small, sat)
			}
		}
	}
}
