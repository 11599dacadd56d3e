package approx

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// AdviceItem is one candidate acquisition: insert Tuple into Relation
// of D. Items come from witness valuations — each is a tuple some
// legal extension of D must be able to contain — so they are exactly
// the facts whose absence the counterexample exploits. Fresh counts
// the placeholder values (⊥1, ⊥2, …) in the tuple: 0 means a fully
// concrete fact ready to insert as-is, >0 means a pattern whose
// placeholder positions the acquirer must fill with real values.
type AdviceItem struct {
	// Round is the witness round that produced the item (1-based).
	Round int
	// Relation and Tuple are the fact to acquire.
	Relation string
	Tuple    relation.Tuple
	// Fresh counts placeholder values in Tuple.
	Fresh int
}

// Advice is the outcome of Advise.
type Advice struct {
	// Verdict is the initial verdict for Q over the untouched D.
	Verdict core.Verdict
	// Items are the candidate acquisitions, ranked concrete-first
	// (ascending Fresh), then by round, relation and tuple.
	Items []AdviceItem
	// Rounds is the number of witness rounds run.
	Rounds int
	// Flipped reports whether inserting every item into D was certified
	// (by an exact RCDP check of D plus the items) to flip the verdict to
	// Complete. When false, the rounds or budget cap stopped the loop
	// with the verdict still Incomplete (or governance answered
	// Unknown); Final holds that last verdict.
	Flipped bool
	// Final is the certified verdict of D plus all Items.
	Final core.Verdict
}

// Advise computes acquisition advice for an incomplete (Q, D, Dm, V):
// tuples whose insertion into D flips the RCDP verdict to Complete.
//
// The loop is witness-driven: while the verdict is Incomplete, the
// checker's counterexample witness Δ = μ(T) is recorded as advice and
// inserted into a private clone of D (never the caller's database),
// which core.Checker.RCDPCtx then checks again against the caller's Dm
// (only read, never cloned). Each round strictly grows Q(D')
// (the witness's NewTuple is an answer over D ∪ Δ that was missing
// before), and the final Complete verdict, when reached, certifies the
// whole batch: the advice is guaranteed to work because the checker
// itself said so on exactly the mutated state.
//
// Master-side advice is never produced, and not for lack of trying:
// inserting into Dm only grows the projections p(Dm), so any valid
// witness valuation against (D, Dm) stays valid against (D, Dm ∪ Δm)
// while Q(D) is untouched — master-side inserts preserve
// incompleteness. Only acquiring data for D can flip the verdict.
func Advise(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set, opts Options) (*Advice, error) {
	start := time.Now()
	defer func() { obs.ApproxSeconds.Observe(time.Since(start).Seconds()) }()

	ck := opts.checker()
	res, err := ck.RCDPCtx(ctx, q, d, dm, v)
	if err != nil {
		return nil, err
	}
	adv := &Advice{Verdict: res.Verdict, Final: res.Verdict}
	if res.Verdict != core.VerdictIncomplete {
		return adv, nil // nothing to flip: the verdict was never Incomplete
	}

	// Grow a private clone of D by each witness; the caller's D and Dm
	// are only read, so Dm's p(Dm) memo stays warm across the rounds.
	dc := d.Clone()
	for round := 1; round <= opts.maxRounds(); round++ {
		if res.Extension == nil {
			break // incomplete without a witness cannot happen; stop defensively
		}
		obs.AdviceRounds.Inc()
		adv.Rounds = round
		for _, rel := range res.Extension.Relations() {
			for _, t := range res.Extension.Instance(rel).Tuples() {
				adv.Items = append(adv.Items, AdviceItem{
					Round:    round,
					Relation: rel,
					Tuple:    t,
					Fresh:    freshCount(t),
				})
			}
		}
		dc.UnionInto(res.Extension)
		res, err = ck.RCDPCtx(ctx, q, dc, dm, v)
		if err != nil {
			return nil, fmt.Errorf("approx: advice round %d: %w", round, err)
		}
		adv.Final = res.Verdict
		if res.Verdict != core.VerdictIncomplete {
			break
		}
	}
	if adv.Final == core.VerdictComplete {
		adv.Flipped = true
		obs.AdviceFlips.Inc()
	}
	rankItems(adv.Items)
	return adv, nil
}

// freshCount counts placeholder values in a tuple.
func freshCount(t relation.Tuple) int {
	n := 0
	for _, val := range t {
		if core.IsFreshValue(val) {
			n++
		}
	}
	return n
}

// rankItems orders advice concrete-first: ascending placeholder count,
// then round, relation name and tuple bytes — a deterministic order
// that puts ready-to-insert facts ahead of patterns needing values.
func rankItems(items []AdviceItem) {
	sort.SliceStable(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Fresh != b.Fresh {
			return a.Fresh < b.Fresh
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		return tupleKey(a.Tuple) < tupleKey(b.Tuple)
	})
}

func tupleKey(t relation.Tuple) string {
	out := ""
	for _, v := range t {
		out += string(v) + "\x00"
	}
	return out
}
