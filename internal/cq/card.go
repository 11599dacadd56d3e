package cq

import (
	"slices"

	"repro/internal/query"
)

// This file is the cardinality cut of the plain join. A group of m
// templates over one relation that hold the same term at one column
// and are pairwise forced onto distinct rows — each pair has a column
// where their terms are two different constants or the two sides of an
// inequality — can only match m distinct rows that all carry that
// term's id in that column. Once the term is bound, an instance with
// fewer such rows has no match below this point of the plan, and the
// join returns "no match" without enumerating it. The shape is that of
// cc.AtMostK, "each key holds at most k counted values": k+1
// self-joined atoms with pairwise-distinct counted values, whose check
// on a database that satisfies it otherwise walks every permutation of
// each key's rows.
//
// Pruning removes only branches without a leaf, so answers, their
// order and every verdict built on them are unchanged; only the rows a
// join charges drop.

// cardGroup is one group of the cardinality cut: need ≥ 2 templates
// over the relation of template tmpl, all holding key at column col.
type cardGroup struct {
	tmpl int
	col  int
	key  iterm
	need int
}

// cardGroups detects the groups of the cardinality cut, one per
// (relation, column, term) with at least two templates: greedily, in
// template order, the templates forced onto rows distinct from every
// member so far. A tableau without an inequality between two variables
// has no group worth the scan and returns nil at once.
func (ip *iplan) cardGroups(atoms []query.RelAtom) []cardGroup {
	var neq map[[2]iterm]bool
	for _, dq := range ip.diseqs {
		if dq[0] >= 0 && dq[1] >= 0 {
			neq = make(map[[2]iterm]bool, 2*len(ip.diseqs))
			break
		}
	}
	if neq == nil {
		return nil
	}
	for _, dq := range ip.diseqs {
		neq[dq], neq[[2]iterm{dq[1], dq[0]}] = true, true
	}
	var groups []cardGroup
	var members []int
	for i, args := range ip.tmpls {
	cols:
		for col, key := range args {
			for j := 0; j < i; j++ {
				if ip.sameSlot(atoms, i, j, col) {
					continue cols // the group was seeded from template j
				}
			}
			members = append(members[:0], i)
			for j := i + 1; j < len(ip.tmpls); j++ {
				if ip.sameSlot(atoms, i, j, col) && ip.distinctFromAll(neq, j, members) {
					members = append(members, j)
				}
			}
			if len(members) >= 2 {
				groups = append(groups, cardGroup{tmpl: i, col: col, key: key, need: len(members)})
			}
		}
	}
	return groups
}

// sameSlot reports whether templates i and j are over one relation of
// one arity and hold the same term at column col.
func (ip *iplan) sameSlot(atoms []query.RelAtom, i, j, col int) bool {
	return atoms[i].Rel == atoms[j].Rel && len(ip.tmpls[i]) == len(ip.tmpls[j]) && ip.tmpls[i][col] == ip.tmpls[j][col]
}

// distinctFromAll reports whether template j is forced onto a row
// distinct from that of every template in members: for each member,
// some column holds two different constants (constants are interned
// once, so different terms are different values) or the two sides of
// an inequality of neq.
func (ip *iplan) distinctFromAll(neq map[[2]iterm]bool, j int, members []int) bool {
next:
	for _, m := range members {
		for c, x := range ip.tmpls[j] {
			y := ip.tmpls[m][c]
			if x != y && (x < 0 && y < 0 || neq[[2]iterm{x, y}]) {
				continue next
			}
		}
		return false
	}
	return true
}

// cardPositions returns, per group, the plan position at which the cut
// checks it: 0 for a constant key, else one past the first template of
// order that binds the key. It is nil, with no allocation, when the
// plan has no group.
func (ip *iplan) cardPositions(order []int) []int {
	if len(ip.cards) == 0 {
		return nil
	}
	at := make([]int, len(ip.cards))
	for g, cg := range ip.cards {
		if cg.key < 0 {
			continue
		}
		for p, ti := range order {
			if slices.Contains(ip.tmpls[ti], cg.key) {
				at[g] = p + 1
				break
			}
		}
	}
	return at
}

// cardinalityCut reports whether some group checked at plan position
// k has fewer rows with its key than it has templates: the branch then
// has no match.
func (st *ijoin) cardinalityCut(k int) bool {
	for g, at := range st.cardAt {
		if at != k {
			continue
		}
		cg := &st.ip.cards[g]
		n := 0
		if st.ins[cg.tmpl] != nil {
			id, _ := st.resolve(cg.key)
			n = idCount(st.ixs[cg.tmpl], cg.col, id)
		}
		if n < cg.need {
			st.es.cardCuts++
			return true
		}
	}
	return false
}
