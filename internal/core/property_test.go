package core

import (
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/relation"
)

// Property tests for semantic invariants of RCDP that the paper's
// definitions imply but no single example pins:
//
//   - CC-monotonicity: constraints only shrink the space of partially
//     closed extensions, so a database complete w.r.t. (Dm, V) stays
//     complete w.r.t. (Dm, V ∪ V') whenever it is still partially
//     closed under the larger set.
//   - Enumeration-order invariance: verdicts and witnesses depend only
//     on the database as a set of relations of sets of tuples, never on
//     the order relations were declared or tuples inserted.
//
// Both properties are checked at Workers ∈ {1, 8}, since the
// sequential and parallel engines enumerate differently.

// engineConfigs enumerates the worker configurations.
func engineConfigs() []struct {
	name    string
	workers int
} {
	return []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{"par", 8},
	}
}

// mergedConstraints unions two constraint-set fixtures: the constraint
// lists are concatenated and the master databases unioned (every
// fixture shares the master schema M(x)).
func mergedConstraints(a, b struct {
	name string
	v    *cc.Set
	dm   *relation.Database
}) (*cc.Set, *relation.Database) {
	merged := cc.NewSet()
	merged.Add(a.v.Constraints...)
	merged.Add(b.v.Constraints...)
	return merged, a.dm.Union(b.dm)
}

// TestRCDPCCMonotonicityProperty: on random instances, whenever D is
// complete w.r.t. (Dm, V) and still partially closed w.r.t.
// (Dm, V ∪ V'), it must be complete w.r.t. (Dm, V ∪ V') too — under
// every engine configuration.
func TestRCDPCCMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	queries := microQueries()
	sets := microConstraintSets()

	completeHits := 0
	trials := 0
	for trial := 0; trial < 3000 && completeHits < 40; trial++ {
		q := queries[rng.Intn(len(queries))]
		base := sets[rng.Intn(len(sets))]
		extra := sets[rng.Intn(len(sets))]
		merged, dm := mergedConstraints(base, extra)
		d := randomMicroDB(rng)
		// Precondition: D partially closed under the augmented set
		// (which implies it is under the base set too).
		if ok, err := merged.Satisfied(d, dm); err != nil || !ok {
			continue
		}
		trials++
		br, err := (&Checker{Workers: 1}).RCDP(q, d, dm, base.v)
		if err != nil {
			t.Fatal(err)
		}
		if !br.Complete {
			continue
		}
		completeHits++
		for _, cfg := range engineConfigs() {
			mr, err := (&Checker{Workers: cfg.workers}).RCDP(q, d, dm, merged)
			if err != nil {
				t.Fatalf("trial %d (%s, %s+%s/%s): %v", trial, cfg.name, base.name, extra.name, q, err)
			}
			if !mr.Complete {
				t.Fatalf("trial %d (%s): completeness lost under V ∪ V' (%s + %s)\nquery %s\nD:\n%v\nwitness: %v",
					trial, cfg.name, base.name, extra.name, q, d, mr.Extension)
			}
		}
	}
	if completeHits < 30 {
		t.Fatalf("too few complete base instances exercised: %d (of %d partially closed trials)", completeHits, trials)
	}
}

// shuffledCopy rebuilds d with relations registered and tuples inserted
// in a random order. The result is set-equal to d.
func shuffledCopy(rng *rand.Rand, d *relation.Database) *relation.Database {
	names := append([]string(nil), d.Relations()...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	schemas := make([]*relation.Schema, len(names))
	for i, n := range names {
		schemas[i] = d.Schema(n)
	}
	out := relation.NewDatabase(schemas...)
	for _, n := range names {
		tuples := append([]relation.Tuple(nil), d.Instance(n).Tuples()...)
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
		for _, tu := range tuples {
			if err := out.Add(n, tu); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// TestRCDPShuffleInvariance: the verdict, witness extension and new
// answer must not change when the same database is presented with
// shuffled relation/tuple enumeration order — under every engine
// configuration.
func TestRCDPShuffleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	queries := microQueries()
	sets := microConstraintSets()

	trials := 0
	for trial := 0; trial < 300 && trials < 80; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue
		}
		trials++
		want, err := (&Checker{Workers: 1}).RCDP(q, d, cs.dm, cs.v)
		if err != nil {
			t.Fatal(err)
		}
		for shuffle := 0; shuffle < 3; shuffle++ {
			sd := shuffledCopy(rng, d)
			if !sd.Equal(d) {
				t.Fatalf("trial %d: shuffled copy not set-equal\n%v\nvs\n%v", trial, d, sd)
			}
			for _, cfg := range engineConfigs() {
				got, err := (&Checker{Workers: cfg.workers}).RCDP(q, sd, cs.dm, cs.v)
				if err != nil {
					t.Fatalf("trial %d (%s, %s/%s): %v", trial, cfg.name, cs.name, q, err)
				}
				if !sameRCDP(want, got) {
					t.Fatalf("trial %d (%s, %s/%s): verdict depends on enumeration order\nD:\n%v\ncanonical: %+v\nshuffled:  %+v",
						trial, cfg.name, cs.name, q, d, want, got)
				}
			}
		}
	}
	if trials < 40 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}
