package cq

import (
	"slices"

	"repro/internal/relation"
)

// DeltaRows is a delta Δ held as shared-dictionary id rows, grouped by
// relation: the form the delta side of differential evaluation reads
// (DeltaProbe.Run). The decision procedures ground one per candidate
// valuation from the search's slot array (SlotTemplates.Ground), so the
// witness test of RCDP never builds a relation.Database, interns a
// value or indexes an instance; the Database-delta entry points read an
// instance's raw id columns into the same form (DeltaRowsOf).
//
// A Δ holds at most a few rows per relation, so the join scans them
// instead of probing an index. Each relation keeps its rows
// deduplicated and in the order an Instance holding them enumerates
// (the lexicographic order of their values), together with per-column
// distinct counts, so a scan visits and charges exactly the rows the
// same enumeration over an Instance would. The zero value is an empty
// delta; a DeltaRows is refilled in place and is single-goroutine.
type DeltaRows struct {
	rels []deltaRel
	n    int // distinct rows over all relations
}

// deltaRel is the rows of one relation: one id column per attribute,
// each with room for the relation's row bound and holding its n rows
// in value order in cols[c][:n], and the number of distinct ids per
// column (the selectivity statistic the join's probe choice reads).
type deltaRel struct {
	name     string
	n        int
	cols     [][]int32
	distinct []int
	buf      []int32 // backing array of cols
}

// Len returns the number of distinct rows over all relations.
func (r *DeltaRows) Len() int { return r.n }

// DeltaRowsOf reads the instances of delta, empty ones included, into
// a fresh DeltaRows: an instance's index view already holds its rows
// deduplicated and in value order, and its distinct counts, so they
// are copied as they are.
func DeltaRowsOf(delta *relation.Database) *DeltaRows {
	r := &DeltaRows{}
	for _, name := range delta.Relations() {
		ix := delta.Instance(name).IDs()
		cols := ix.Cols()
		dr := r.group(name, len(cols), ix.Rows())
		for c, col := range cols {
			copy(dr.cols[c], col)
			dr.distinct[c] = ix.Distinct(c)
		}
		dr.n = ix.Rows()
		r.n += dr.n
	}
	return r
}

// reset empties r, keeping its buffers for the next fill.
func (r *DeltaRows) reset() {
	r.rels = r.rels[:0]
	r.n = 0
}

// group appends an empty relation of the given name and arity with
// room for maxRows rows, reusing the buffers of an earlier fill.
func (r *DeltaRows) group(name string, arity, maxRows int) *deltaRel {
	if len(r.rels) == cap(r.rels) {
		r.rels = append(r.rels, deltaRel{})
	} else {
		r.rels = r.rels[:len(r.rels)+1]
	}
	dr := &r.rels[len(r.rels)-1]
	dr.name, dr.n = name, 0
	if cap(dr.cols) < arity {
		dr.cols = make([][]int32, arity)
		dr.distinct = make([]int, arity)
	}
	dr.cols, dr.distinct = dr.cols[:arity], dr.distinct[:arity]
	if cap(dr.buf) < arity*maxRows {
		dr.buf = make([]int32, arity*maxRows)
	}
	for c := range dr.cols {
		dr.cols[c] = dr.buf[c*maxRows : (c+1)*maxRows : (c+1)*maxRows]
		dr.distinct[c] = 0
	}
	return dr
}

// rel returns the rows of the named relation, or nil when Δ has no
// such relation or its arity differs — the rule Database deltas follow,
// since no row of it could match the template.
func (r *DeltaRows) rel(name string, arity int) *deltaRel {
	for i := range r.rels {
		if dr := &r.rels[i]; dr.name == name {
			if len(dr.cols) != arity {
				return nil
			}
			return dr
		}
	}
	return nil
}

// add inserts the row ids at its place in value order and reports
// whether it was new (1) or a duplicate (0); the relation must have
// room for one more row. vals is a dictionary snapshot covering every
// id; the dictionary is injective, so rows are equal exactly when
// their ids are.
func (dr *deltaRel) add(ids []int32, vals []relation.Value) int {
	n, at := dr.n, dr.n
rows:
	for row := 0; row < n; row++ {
		for c, col := range dr.cols {
			if a, b := col[row], ids[c]; a != b {
				if vals[a] < vals[b] {
					continue rows
				}
				at = row
				break rows
			}
		}
		return 0 // every column equal: a duplicate
	}
	for c, id := range ids {
		col := dr.cols[c][:n+1]
		if !slices.Contains(col[:n], id) {
			dr.distinct[c]++
		}
		copy(col[at+1:], col[at:n])
		col[at] = id
	}
	dr.n++
	return 1
}
