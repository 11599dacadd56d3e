package core

import (
	"repro/internal/cc"
	"repro/internal/relation"
)

// Relevant-value analysis, the second exact shrinking of the Adom
// valuation space (the first being inert-variable collapsing).
//
// A counterexample valuation that assigns some variable a value v can
// be rewritten — by renaming every occurrence of each "irrelevant"
// value injectively to a distinct fresh value — into another
// counterexample, because (a) the renaming preserves the valuation's
// internal (in)equality pattern, so the query's inequality conditions
// and any constraint match confined to the extension are unaffected,
// and (b) a constraint query can compare an extension value against the
// outside world only through constants, through database or master
// values sitting at positions *linked* to the variable's positions
// (sharing a constraint variable or compared by a constraint
// (in)equality), or through the master projection bounding a constraint
// head. Hence each variable's candidate set can be restricted to: the
// constants of Q and V, the D values at the positions in its linked
// group, the Dm values feeding its group through constraint heads, and
// the fresh pool. Everything else is renameable away.
type relevantValues struct {
	// perPosition maps rel → col → sorted candidate values contributed
	// by that position's linked group (database values + master feeds).
	perPosition map[string]map[int][]relation.Value
	// base holds the constants of Q and V.
	base []relation.Value
}

// computeRelevantValues runs the linked-position analysis.
func computeRelevantValues(q interface{ Constants() []relation.Value }, v *cc.Set, d, dm *relation.Database) *relevantValues {
	// Union-find over positions.
	type pos struct {
		rel string
		col int
	}
	parent := make(map[pos]pos)
	var find func(p pos) pos
	find = func(p pos) pos {
		if pp, ok := parent[p]; ok && pp != p {
			r := find(pp)
			parent[p] = r
			return r
		}
		if _, ok := parent[p]; !ok {
			parent[p] = p
		}
		return p
	}
	union := func(a, b pos) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// feeds collects, per group root (resolved later), the master
	// values feeding it through constraint heads, as a dictionary-id
	// set.
	type feed struct {
		anchor pos
		set    []uint64
	}
	var feeds []feed

	if v != nil {
		for _, c := range v.Constraints {
			for _, t := range c.Q.Tableaux() {
				varPos := make(map[string][]pos)
				for _, tpl := range t.Templates {
					for col, a := range tpl.Args {
						p := pos{tpl.Rel, col}
						find(p)
						if a.IsVar {
							varPos[a.Name] = append(varPos[a.Name], p)
						}
					}
				}
				for _, ps := range varPos {
					for i := 1; i < len(ps); i++ {
						union(ps[0], ps[i])
					}
				}
				for _, dq := range t.Diseqs {
					if dq.L.IsVar && dq.R.IsVar {
						lp, rp := varPos[dq.L.Name], varPos[dq.R.Name]
						if len(lp) > 0 && len(rp) > 0 {
							union(lp[0], rp[0])
						}
					}
				}
				// Constraint head variables: the master projection's
				// column values can be compared against the group.
				if !c.P.IsEmptySet() && dm != nil {
					if in := dm.Instance(c.P.Rel); in != nil {
						for hi, h := range t.Head {
							if !h.IsVar || hi >= len(c.P.Cols) {
								continue
							}
							ps := varPos[h.Name]
							if len(ps) == 0 {
								continue
							}
							var set []uint64
							for _, id := range in.InternedCol(c.P.Cols[hi]) {
								set = relation.SetIDBit(set, id)
							}
							feeds = append(feeds, feed{anchor: ps[0], set: set})
						}
					}
				}
			}
		}
	}

	// Collect database values per group as dictionary-id sets (no
	// string keys, sorted later by one scan of the dictionary's sort
	// permutation).
	groupSets := make(map[pos][]uint64)
	if d != nil {
		for _, rel := range d.Relations() {
			in := d.Instance(rel)
			for col := 0; col < in.Schema.Arity(); col++ {
				p := pos{rel, col}
				if _, tracked := parent[p]; !tracked {
					continue // position untouched by V: no outside comparisons
				}
				root := find(p)
				set := groupSets[root]
				for _, id := range in.InternedCol(col) {
					set = relation.SetIDBit(set, id)
				}
				groupSets[root] = set
			}
		}
	}
	for _, f := range feeds {
		root := find(f.anchor)
		set := groupSets[root]
		for w, word := range f.set {
			for len(set) <= w {
				set = append(set, 0)
			}
			set[w] |= word
		}
		groupSets[root] = set
	}

	rv := &relevantValues{perPosition: make(map[string]map[int][]relation.Value)}
	dict := relation.Shared()
	for p := range parent {
		root := find(p)
		m := rv.perPosition[p.rel]
		if m == nil {
			m = make(map[int][]relation.Value)
			rv.perPosition[p.rel] = m
		}
		var vals []relation.Value
		if set := groupSets[root]; set != nil {
			vals = dict.SortedIDValues(set)
		}
		m[p.col] = vals
	}
	seen := make(map[relation.Value]bool)
	if q != nil {
		for _, val := range q.Constants() {
			seen[val] = true
		}
	}
	if v != nil {
		for _, val := range v.Constants() {
			seen[val] = true
		}
	}
	rv.base = relation.SortedValues(seen)
	return rv
}

// candidatesFor returns the restricted candidate set (without the fresh
// pool, which the search appends with its symmetry prefix) for a
// variable occurring at the given positions, or nil when the variable
// must fall back to the full constant pool (never needed — the analysis
// is total — but kept for safety).
func (rv *relevantValues) candidatesFor(positions []varPosition) []relation.Value {
	lists := make([][]relation.Value, 0, len(positions)+1)
	if len(rv.base) > 0 {
		lists = append(lists, rv.base)
	}
outer:
	for _, p := range positions {
		l := rv.perPosition[p.Rel][p.Col]
		if len(l) == 0 {
			continue
		}
		// Positions in one linked group share one slice; merge it once.
		for _, have := range lists {
			if &have[0] == &l[0] {
				continue outer
			}
		}
		lists = append(lists, l)
	}
	out := []relation.Value(nil)
	for _, l := range lists {
		out = mergeSortedValues(out, l)
	}
	if out == nil {
		out = []relation.Value{}
	}
	return out
}

// mergeSortedValues merges two ascending, duplicate-free value slices
// into a fresh ascending, duplicate-free slice — the allocation-light
// replacement for unioning through a map and re-sorting.
func mergeSortedValues(a, b []relation.Value) []relation.Value {
	if len(a) == 0 {
		return append([]relation.Value(nil), b...)
	}
	if len(b) == 0 {
		return append([]relation.Value(nil), a...)
	}
	out := make([]relation.Value, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// applyRelevant installs restricted candidate sets for every
// non-collapsed, infinite-domain variable of the search.
func (s *valuationSearch) applyRelevant(q interface{ Constants() []relation.Value }, v *cc.Set, d, dm *relation.Database) {
	s.applyRelevantFrom(computeRelevantValues(q, v, d, dm))
}

// applyRelevantFrom is applyRelevant with the linked-position analysis
// precomputed. The analysis depends only on (Q, V, D, Dm) — not on the
// disjunct — so multi-disjunct callers compute it once; the installed
// candidate slices are read-only afterwards and safe to share across
// parallel workers.
func (s *valuationSearch) applyRelevantFrom(rv *relevantValues) {
	occ := allVarOccurrences(s.t)
	if s.candidates == nil {
		s.candidates = make(map[string][]relation.Value, len(s.t.Vars))
	}
	for _, name := range s.t.Vars {
		if _, isCollapsed := s.collapsed[name]; isCollapsed {
			continue
		}
		if s.doms[name].Kind == relation.Finite {
			continue
		}
		s.candidates[name] = rv.candidatesFor(occ[name])
	}
}
