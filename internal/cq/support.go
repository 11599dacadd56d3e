package cq

// ColKind classifies one template column by what a match needs of the
// value a row holds there. A match over a row stays a match over any
// row that differs from it only in singleton columns, and only in
// inequality-only columns whose new values avoid every value their
// inequalities compared them with; the decision procedures read this to
// turn one violating match into a nogood over many candidate deltas.
type ColKind uint8

const (
	// ColRelevant is a constant, or a variable that occurs more than
	// once in the templates or in the head: the match needs the value.
	ColRelevant ColKind = iota
	// ColSingleton is an existential singleton: a variable that occurs
	// once in the templates, not in the head and in no inequality. Any
	// value matches.
	ColSingleton
	// ColIneqOnly is a variable that occurs once in the templates, not
	// in the head, and otherwise only in inequalities: any value
	// distinct from the other sides of those inequalities matches.
	ColIneqOnly
)

// columnKinds classifies every template column of the plan.
func (ip *iplan) columnKinds() [][]ColKind {
	nv := 0
	for _, args := range ip.tmpls {
		for _, a := range args {
			nv = max(nv, int(a)+1)
		}
	}
	occ := make([]int, nv)
	ineq := make([]bool, nv)
	for _, args := range ip.tmpls {
		for _, a := range args {
			if a >= 0 {
				occ[a]++
			}
		}
	}
	for _, h := range ip.head {
		if h >= 0 && int(h) < nv {
			occ[h] += 2 // a head variable is always relevant
		}
	}
	for _, dq := range ip.diseqs {
		for _, a := range dq {
			if a >= 0 && int(a) < nv {
				ineq[a] = true
			}
		}
	}
	kinds := make([][]ColKind, len(ip.tmpls))
	for i, args := range ip.tmpls {
		kinds[i] = make([]ColKind, len(args))
		for c, a := range args {
			switch {
			case a < 0 || occ[a] > 1:
				kinds[i][c] = ColRelevant
			case ineq[a]:
				kinds[i][c] = ColIneqOnly
			default:
				kinds[i][c] = ColSingleton
			}
		}
	}
	return kinds
}

// Support is the delta rows one match of a DeltaProbe read, recorded
// when the probe's callback stops the run at that match (RunSupport):
// one row per template the match bound to a delta row, with the
// template's column kinds and, for each inequality-only column, the
// values its inequalities compared it with. By monotonicity, every
// delta that holds the same rows, or rows that differ from them only
// as the column kinds allow, has the same match. The zero value is
// empty; a Support is refilled in place and is single-goroutine.
type Support struct {
	rows []SupportRow
	n    int
}

// SupportRow is one delta row a match read.
type SupportRow struct {
	Rel string
	// IDs is the row as shared-dictionary ids.
	IDs []int32
	// Kinds classifies each column (shared, read-only).
	Kinds []ColKind
	// cmp holds, per inequality-only column, the ids its inequalities
	// compared it with; empty for the other columns.
	cmp [][]int32
}

// Len returns the number of rows recorded; 0 on a nil Support.
func (s *Support) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Row returns row i; it stays valid until the next refill.
func (s *Support) Row(i int) *SupportRow { return &s.rows[i] }

// Compared returns the ids that the inequalities of inequality-only
// column c compared its value with (empty for other columns).
func (r *SupportRow) Compared(c int) []int32 { return r.cmp[c] }

// Reset empties s, keeping its buffers for the next fill. Nil-safe.
func (s *Support) Reset() {
	if s != nil {
		s.n = 0
	}
}

// next appends an empty row of the given relation and arity, reusing
// the buffers of an earlier fill.
func (s *Support) next(rel string, arity int) *SupportRow {
	if s.n == len(s.rows) {
		s.rows = append(s.rows, SupportRow{})
	}
	r := &s.rows[s.n]
	s.n++
	r.Rel = rel
	if cap(r.IDs) < arity {
		r.IDs = make([]int32, arity)
		r.cmp = make([][]int32, arity)
	}
	r.IDs, r.cmp = r.IDs[:arity], r.cmp[:arity]
	for c := range r.cmp {
		r.cmp[c] = r.cmp[c][:0]
	}
	return r
}

// support records into dst the delta rows of the current (complete)
// binding of a differential enumeration: the templates whose current
// row came from the delta side (src).
func (st *ijoin) support(t *Tableau, dst *Support) {
	dst.Reset()
	for ti, args := range st.ip.tmpls {
		if !st.src[ti] {
			continue
		}
		r := dst.next(t.Templates[ti].Rel, len(args))
		r.Kinds = st.ip.kinds[ti]
		for c, a := range args {
			r.IDs[c], _ = st.resolve(a)
			if r.Kinds[c] != ColIneqOnly {
				continue
			}
			for _, dq := range st.ip.diseqs {
				other := dq[0]
				switch a {
				case dq[0]:
					other = dq[1]
				case dq[1]:
				default:
					continue
				}
				id, _ := st.resolve(other)
				r.cmp[c] = append(r.cmp[c], id)
			}
		}
	}
}
