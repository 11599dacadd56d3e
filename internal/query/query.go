// Package query provides the shared syntactic building blocks of all
// query languages in the library: terms (variables and constants),
// relation atoms, and (in)equality atoms with = and ≠, which every
// language of the paper (CQ, UCQ, ∃FO⁺, FO, FP) is allowed to use.
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Term is either a variable or a constant.
type Term struct {
	IsVar bool
	Name  string         // variable name when IsVar
	Val   relation.Value // constant value when !IsVar
}

// Var returns a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Const returns a constant term.
func Const(v relation.Value) Term { return Term{Val: v} }

// C returns a constant term from a plain string.
func C(v string) Term { return Const(relation.Value(v)) }

// Equal reports syntactic equality of terms.
func (t Term) Equal(o Term) bool {
	if t.IsVar != o.IsVar {
		return false
	}
	if t.IsVar {
		return t.Name == o.Name
	}
	return t.Val == o.Val
}

func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return "'" + string(t.Val) + "'"
}

// RelAtom is a relation atom R(t₁, …, t_k).
type RelAtom struct {
	Rel  string
	Args []Term
}

// Atom builds a relation atom.
func Atom(rel string, args ...Term) RelAtom { return RelAtom{Rel: rel, Args: args} }

func (a RelAtom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns a deep copy of the atom.
func (a RelAtom) Clone() RelAtom {
	return RelAtom{Rel: a.Rel, Args: append([]Term(nil), a.Args...)}
}

// Vars appends the variables of the atom to dst (with duplicates).
func (a RelAtom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar {
			dst = append(dst, t.Name)
		}
	}
	return dst
}

// EqAtom is an equality (L = R) or, when Neg is set, an inequality
// (L ≠ R) between two terms.
type EqAtom struct {
	L, R Term
	Neg  bool
}

// Eq builds an equality atom.
func Eq(l, r Term) EqAtom { return EqAtom{L: l, R: r} }

// Neq builds an inequality atom.
func Neq(l, r Term) EqAtom { return EqAtom{L: l, R: r, Neg: true} }

func (e EqAtom) String() string {
	op := " = "
	if e.Neg {
		op = " != "
	}
	return e.L.String() + op + e.R.String()
}

// Binding maps variable names to values. It is the common currency of
// all evaluators in the library.
type Binding map[string]relation.Value

// Clone copies the binding.
func (b Binding) Clone() Binding {
	cp := make(Binding, len(b))
	for k, v := range b {
		cp[k] = v
	}
	return cp
}

// Resolve returns the value of a term under the binding; ok is false for
// an unbound variable.
func (b Binding) Resolve(t Term) (relation.Value, bool) {
	if !t.IsVar {
		return t.Val, true
	}
	v, ok := b[t.Name]
	return v, ok
}

// Holds evaluates an (in)equality atom under the binding; it reports
// ok=false when either side is unbound.
func (e EqAtom) Holds(b Binding) (holds, ok bool) {
	l, okl := b.Resolve(e.L)
	r, okr := b.Resolve(e.R)
	if !okl || !okr {
		return false, false
	}
	return (l == r) != e.Neg, true
}

// Apply instantiates the atom's variables from the binding. Unbound
// variables stay variables.
func (a RelAtom) Apply(b Binding) RelAtom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar {
			if v, ok := b[t.Name]; ok {
				out.Args[i] = Const(v)
			}
		}
	}
	return out
}

// Ground converts a fully bound atom into a tuple; it returns ok=false
// if any variable is unbound.
func (a RelAtom) Ground(b Binding) (relation.Tuple, bool) {
	t := make(relation.Tuple, len(a.Args))
	for i, arg := range a.Args {
		v, ok := b.Resolve(arg)
		if !ok {
			return nil, false
		}
		t[i] = v
	}
	return t, true
}

// Constants appends all constants occurring in the atom to dst.
func (a RelAtom) Constants(dst []relation.Value) []relation.Value {
	for _, t := range a.Args {
		if !t.IsVar {
			dst = append(dst, t.Val)
		}
	}
	return dst
}

// SortedVarSet deduplicates and sorts a variable name list.
func SortedVarSet(vars []string) []string {
	seen := make(map[string]bool, len(vars))
	out := make([]string, 0, len(vars))
	for _, v := range vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// TermsString renders a term list as "t1, t2, …".
func TermsString(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// MustVars converts names to variable terms.
func MustVars(names ...string) []Term {
	out := make([]Term, len(names))
	for i, n := range names {
		out[i] = Var(n)
	}
	return out
}

// FormatHead renders a query head like "Q(x, y)".
func FormatHead(name string, head []Term) string {
	return fmt.Sprintf("%s(%s)", name, TermsString(head))
}
