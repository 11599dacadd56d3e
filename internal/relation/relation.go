// Package relation provides the relational substrate used throughout the
// library: values, typed attributes with finite or infinite domains,
// relation schemas, tuples, instances and databases.
//
// The model follows Section 2.1 of Fan & Geerts, "Relative Information
// Completeness": every attribute draws its values either from a countably
// infinite domain d, or from a finite domain d_f with at least two
// elements. Instances are set-valued (no duplicates) and all iteration
// orders are deterministic, so every decision procedure built on top of
// this package is reproducible.
package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Value is a single database value. Values compare by string identity;
// the empty string is a legal value.
type Value string

// DomainKind distinguishes the two attribute domains of the paper.
type DomainKind uint8

const (
	// Infinite is the countably infinite domain d.
	Infinite DomainKind = iota
	// Finite is a finite domain d_f with at least two elements.
	Finite
)

// Domain describes the set of values an attribute may take. For Finite
// domains Values holds the full, sorted value set; for Infinite domains
// Values is nil.
type Domain struct {
	Kind   DomainKind
	Values []Value // sorted, unique; only for Kind == Finite
}

// InfiniteDomain returns the countably infinite domain d.
func InfiniteDomain() Domain { return Domain{Kind: Infinite} }

// FiniteDomain returns a finite domain over the given values. The values
// are deduplicated and sorted. Finite domains must contain at least two
// elements (as required by the paper); smaller domains are rejected at
// schema-validation time, not here, so tests can build degenerate cases.
func FiniteDomain(values ...Value) Domain {
	vs := append([]Value(nil), values...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	var prev Value
	for i, v := range vs {
		if i == 0 || v != prev {
			out = append(out, v)
		}
		prev = v
	}
	return Domain{Kind: Finite, Values: out}
}

// Contains reports whether v belongs to the domain. Every value belongs
// to the infinite domain.
func (d Domain) Contains(v Value) bool {
	if d.Kind == Infinite {
		return true
	}
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] >= v })
	return i < len(d.Values) && d.Values[i] == v
}

// Equal reports whether two domains are identical.
func (d Domain) Equal(o Domain) bool {
	if d.Kind != o.Kind || len(d.Values) != len(o.Values) {
		return false
	}
	for i := range d.Values {
		if d.Values[i] != o.Values[i] {
			return false
		}
	}
	return true
}

func (d Domain) String() string {
	if d.Kind == Infinite {
		return "inf"
	}
	parts := make([]string, len(d.Values))
	for i, v := range d.Values {
		parts[i] = string(v)
	}
	return "fin{" + strings.Join(parts, ",") + "}"
}

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name   string
	Domain Domain
}

// Attr is shorthand for an attribute over the infinite domain.
func Attr(name string) Attribute { return Attribute{Name: name, Domain: InfiniteDomain()} }

// FinAttr is shorthand for an attribute over a finite domain.
func FinAttr(name string, values ...Value) Attribute {
	return Attribute{Name: name, Domain: FiniteDomain(values...)}
}

// Schema describes one relation: its name and typed attributes.
type Schema struct {
	Name  string
	Attrs []Attribute
}

// NewSchema builds a relation schema.
func NewSchema(name string, attrs ...Attribute) *Schema {
	return &Schema{Name: name, Attrs: attrs}
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural well-formedness: nonempty name, unique
// attribute names and finite domains of size at least two.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relation: schema with empty name")
	}
	seen := make(map[string]bool, len(s.Attrs))
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("relation: schema %s has an unnamed attribute", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("relation: schema %s has duplicate attribute %s", s.Name, a.Name)
		}
		seen[a.Name] = true
		if a.Domain.Kind == Finite && len(a.Domain.Values) < 2 {
			return fmt.Errorf("relation: schema %s attribute %s: finite domain needs >= 2 values", s.Name, a.Name)
		}
	}
	return nil
}

// Check reports whether t fits the schema: the error Instance.Add
// returns for a tuple of the wrong arity or with a value outside its
// attribute's finite domain, nil otherwise.
func (s *Schema) Check(t Tuple) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("relation: %s expects arity %d, got tuple %v", s.Name, s.Arity(), t)
	}
	for i, v := range t {
		if !s.Attrs[i].Domain.Contains(v) {
			return fmt.Errorf("relation: %s.%s: value %q outside finite domain %s",
				s.Name, s.Attrs[i].Name, v, s.Attrs[i].Domain)
		}
	}
	return nil
}

func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Domain.Kind == Finite {
			parts[i] = a.Name + ":" + a.Domain.String()
		} else {
			parts[i] = a.Name
		}
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is an ordered list of values.
type Tuple []Value

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Less orders tuples lexicographically.
func (t Tuple) Less(o Tuple) bool {
	for i := 0; i < len(t) && i < len(o); i++ {
		if t[i] != o[i] {
			return t[i] < o[i]
		}
	}
	return len(t) < len(o)
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// T builds a tuple from strings; a convenience for literals in tests and
// examples.
func T(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	return t
}

// Project returns the tuple restricted to the given column indexes.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Instance is a finite set of tuples over one schema. Values are
// interned into dense int32 ids through the process-wide dictionary and
// rows are stored as column slices (struct-of-arrays); duplicate
// detection keys on the fixed-width id encoding and secondary indexes
// are sorted-rank posting lists (column.go), which is what the join
// engine in internal/cq consumes. Every enumeration order is the
// deterministic lexicographic tuple order.
//
// Duplicate detection probes an open-addressing row index over the
// columns: rows hash as id tuples (hashIDs) and a hash hit is confirmed
// by comparing the row's ids, so no insert or probe builds a key.
type Instance struct {
	Schema *Schema

	// cols holds one dense id column per attribute, n counts rows.
	cols [][]int32
	n    int

	// index is the row index (linear probing): each slot holds 1 + a
	// row number, 0 when empty. Its length is a power of two, at least
	// twice n; nil until the first row.
	index []int32

	// sorted caches the deterministic tuple order; nil when dirty.
	sorted []Tuple

	// gen counts successful mutations (Add/Remove). Secondary indexes
	// and external caches key on it for invalidation.
	gen uint64

	// postings publishes the posting-list index of column.go for the
	// generation it records. Index sets are built on demand, atomically
	// swapped in, and never mutated after a column slot is published,
	// so concurrent readers of a quiescent instance need no locks.
	// Mutating an instance while others read it remains forbidden,
	// exactly as for the sorted cache.
	postings atomic.Pointer[postingSet]

	// projs publishes the ProjectIDSet memo (project.go) for the
	// generation it records, under the same rules as postings.
	projs atomic.Pointer[projMemo]
}

// NewInstance returns an empty instance of the schema.
func NewInstance(s *Schema) *Instance {
	return &Instance{Schema: s, cols: make([][]int32, s.Arity())}
}

// hashRow is hashIDs of row r's ids, read from the columns.
func (in *Instance) hashRow(r int32) uint64 {
	h := hashSeed(len(in.cols))
	for _, col := range in.cols {
		h = hashMix(h, col[r])
	}
	return hashFinal(h)
}

// rowHolds reports whether row r holds exactly ids.
func (in *Instance) rowHolds(r int32, ids []int32) bool {
	for c, col := range in.cols {
		if col[r] != ids[c] {
			return false
		}
	}
	return true
}

// findIDs returns the index slot holding the row of ids, or the empty
// slot where it would go; the index must be non-nil.
func (in *Instance) findIDs(ids []int32) (slot int, found bool) {
	mask := len(in.index) - 1
	for i := int(hashIDs(ids)) & mask; ; i = (i + 1) & mask {
		e := in.index[i]
		if e == 0 {
			return i, false
		}
		if in.rowHolds(e-1, ids) {
			return i, true
		}
	}
}

// slotOfRow returns the index slot that holds row r, which must be a
// live row.
func (in *Instance) slotOfRow(r int32) int {
	mask := len(in.index) - 1
	i := int(in.hashRow(r)) & mask
	for in.index[i] != r+1 {
		i = (i + 1) & mask
	}
	return i
}

// growIndex reallocates the row index for n+1 rows (tableSize keeps the
// load at most one half) and reinserts every row.
func (in *Instance) growIndex() {
	in.index = make([]int32, tableSize(in.n+1))
	mask := len(in.index) - 1
	for r := int32(0); r < int32(in.n); r++ {
		i := int(in.hashRow(r)) & mask
		for in.index[i] != 0 {
			i = (i + 1) & mask
		}
		in.index[i] = r + 1
	}
}

// deleteSlot empties slot i of the row index by backward-shift
// deletion: later entries of the probe run move back into the hole
// unless their home slot lies cyclically in (hole, entry], so every
// remaining row stays reachable from its home slot without tombstones.
func (in *Instance) deleteSlot(i int) {
	mask := len(in.index) - 1
	for j := (i + 1) & mask; in.index[j] != 0; j = (j + 1) & mask {
		home := int(in.hashRow(in.index[j]-1)) & mask
		if (j-home)&mask < (j-i)&mask {
			continue // home lies in (i, j]: the entry stays
		}
		in.index[i] = in.index[j]
		i = j
	}
	in.index[i] = 0
}

// Add inserts a tuple, validating arity and finite-domain membership.
// Adding a duplicate is a no-op.
func (in *Instance) Add(t Tuple) error {
	if err := in.Schema.Check(t); err != nil {
		return err
	}
	in.addInterned(t)
	return nil
}

// addInterned interns the tuple's values and appends a row unless the
// id-key already exists (see AddIDs).
func (in *Instance) addInterned(t Tuple) {
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(t) > inlineArity {
		ids = make([]int32, 0, len(t))
	}
	for _, v := range t {
		ids = append(ids, shared.Intern(v))
	}
	in.AddIDs(ids)
}

// AddIDs inserts a tuple given as shared-dictionary ids; adding a
// duplicate is a no-op. Unlike Add it validates neither the arity nor
// finite-domain membership: the caller vouches for both, as the slot
// plans of cq.Tableau do by checking finite domains against id sets
// compiled once per plan, and as the textq fact scanner does against
// the schema. Apart from column and index growth it allocates nothing.
func (in *Instance) AddIDs(ids []int32) {
	if 2*(in.n+1) > len(in.index) {
		in.growIndex()
	}
	slot, found := in.findIDs(ids)
	if found {
		return
	}
	for c := range in.cols {
		in.cols[c] = append(in.cols[c], ids[c])
	}
	in.n++
	in.index[slot] = int32(in.n)
	in.sorted = nil
	in.gen++
}

// MustAdd is Add that panics on error; for literals in tests/examples.
func (in *Instance) MustAdd(t Tuple) {
	if err := in.Add(t); err != nil {
		panic(err)
	}
}

// Remove deletes a tuple if present.
// Rows are deleted by swapping the last row into their place (row
// numbers carry no ordering — deterministic order lives in the posting
// index's rank permutation, rebuilt per generation).
func (in *Instance) Remove(t Tuple) {
	if len(t) != len(in.cols) || in.n == 0 {
		return
	}
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(t) > inlineArity {
		ids = make([]int32, 0, len(t))
	}
	for _, v := range t {
		id, ok := shared.ID(v)
		if !ok {
			return
		}
		ids = append(ids, id)
	}
	slot, found := in.findIDs(ids)
	if !found {
		return
	}
	row := in.index[slot] - 1
	in.deleteSlot(slot)
	last := int32(in.n - 1)
	if row != last {
		in.index[in.slotOfRow(last)] = row + 1
		for c := range in.cols {
			in.cols[c][row] = in.cols[c][last]
		}
	}
	for c := range in.cols {
		in.cols[c] = in.cols[c][:last]
	}
	in.n--
	in.sorted = nil
	in.gen++
}

// Reset empties the instance in place, keeping its column capacity, so
// a reused scratch instance (RCQP's per-valuation fragments, refilled
// by cq.SlotTemplates.ApplyInto) refills without reallocating. It
// counts as a mutation: any previously obtained view or cache is
// invalidated, and the usual no-readers-during-mutation rule applies.
func (in *Instance) Reset() {
	for c := range in.cols {
		in.cols[c] = in.cols[c][:0]
	}
	clear(in.index)
	in.n = 0
	in.sorted = nil
	in.gen++
}

// Reset empties every relation of the database in place; see
// Instance.Reset.
func (d *Database) Reset() {
	for _, in := range d.rels {
		in.Reset()
	}
}

// Generation returns the mutation counter. Two reads returning the same
// value bracket a span with no successful Add/Remove, so any cache built
// in between is still valid.
func (in *Instance) Generation() uint64 { return in.gen }

// Contains reports tuple membership. It is read-only (scratch buffers
// are stack-local), so concurrent readers of a quiescent instance may
// call it freely.
func (in *Instance) Contains(t Tuple) bool {
	if len(t) != len(in.cols) {
		return false
	}
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(t) > inlineArity {
		ids = make([]int32, 0, len(t))
	}
	for _, v := range t {
		id, ok := shared.ID(v)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	return in.hasIDs(ids)
}

// hasIDs reports whether a row holds exactly ids.
func (in *Instance) hasIDs(ids []int32) bool {
	if in.n == 0 {
		return false
	}
	_, found := in.findIDs(ids)
	return found
}

// Len returns the number of tuples.
func (in *Instance) Len() int { return in.n }

// Tuples returns all tuples in deterministic (lexicographic) order.
// The returned slice is a shared cache: callers must not modify it.
func (in *Instance) Tuples() []Tuple {
	if in.sorted == nil {
		ps := in.ensurePostings()
		vals := shared.Snapshot()
		arity := len(in.cols)
		out := make([]Tuple, in.n)
		for k, r := range ps.rank {
			t := make(Tuple, arity)
			for c := 0; c < arity; c++ {
				t[c] = vals[in.cols[c][r]]
			}
			out[k] = t
		}
		in.sorted = out
	}
	return in.sorted
}

// Warm populates the lazily-built tuple-order cache. Index builds and
// publications are atomic, so a warmed instance can be shared read-only
// across goroutines.
func (in *Instance) Warm() { in.Tuples() }

// Distinct returns the number of distinct values in column col. It is
// the selectivity statistic used by the cost-based join planner: an
// equality probe on col is expected to match about Len/Distinct tuples.
func (in *Instance) Distinct(col int) int {
	if col < 0 || col >= len(in.cols) {
		return 0
	}
	return in.IDs().Distinct(col)
}

// Clone returns a deep copy sharing the schema.
func (in *Instance) Clone() *Instance {
	cp := &Instance{
		Schema: in.Schema,
		cols:   make([][]int32, len(in.cols)),
		n:      in.n,
	}
	for c := range in.cols {
		cp.cols[c] = append([]int32(nil), in.cols[c]...)
	}
	cp.index = append([]int32(nil), in.index...)
	return cp
}

// SubsetOf reports whether every tuple of in occurs in o. Instances
// compare by ids (every instance shares the process-wide dictionary):
// each of in's rows probes o's row index. Neither side's shared caches
// are touched, so it is safe on instances read concurrently.
func (in *Instance) SubsetOf(o *Instance) bool {
	if in.Len() > o.Len() {
		return false
	}
	if len(in.cols) != len(o.cols) {
		return in.n == 0
	}
	ids := make([]int32, len(in.cols))
	for r := 0; r < in.n; r++ {
		for c := range in.cols {
			ids[c] = in.cols[c][r]
		}
		if !o.hasIDs(ids) {
			return false
		}
	}
	return true
}

// Equal reports set equality of the two instances.
func (in *Instance) Equal(o *Instance) bool {
	return in.Len() == o.Len() && in.SubsetOf(o)
}

// Project returns the distinct projections of all tuples onto cols.
// Duplicate detection hashes the projected ids (an IDTupleSet) instead
// of materializing a projected tuple per row.
func (in *Instance) Project(cols []int) []Tuple {
	seen := NewIDTupleSet(len(cols), 0)
	vals := shared.Snapshot()
	out := make([]Tuple, 0, 8)
	ids := make([]int32, len(cols))
	for r := 0; r < in.n; r++ {
		for i, c := range cols {
			ids[i] = in.cols[c][r]
		}
		if !seen.Add(ids) {
			continue
		}
		p := make(Tuple, len(cols))
		for i, id := range ids {
			p[i] = vals[id]
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (in *Instance) String() string {
	var b strings.Builder
	b.WriteString(in.Schema.Name)
	b.WriteString(" {")
	for i, t := range in.Tuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}

// Database is a named collection of instances — one per relation schema.
// It models both ordinary databases D over schema R and master data Dm
// over schema Rm.
type Database struct {
	rels  map[string]*Instance
	order []string // sorted relation names
}

// NewDatabase returns a database with one empty instance per schema.
func NewDatabase(schemas ...*Schema) *Database {
	d := &Database{rels: make(map[string]*Instance, len(schemas))}
	for _, s := range schemas {
		if _, dup := d.rels[s.Name]; dup {
			panic(fmt.Sprintf("relation: duplicate schema %s", s.Name))
		}
		d.rels[s.Name] = NewInstance(s)
		d.order = append(d.order, s.Name)
	}
	sort.Strings(d.order)
	return d
}

// AddSchema adds an empty instance for a new schema.
func (d *Database) AddSchema(s *Schema) {
	if _, dup := d.rels[s.Name]; dup {
		panic(fmt.Sprintf("relation: duplicate schema %s", s.Name))
	}
	d.rels[s.Name] = NewInstance(s)
	d.order = append(d.order, s.Name)
	sort.Strings(d.order)
}

// Overlay returns a database that reads d's instances, shared and not
// copied, together with ins, each under its schema's name and hiding a
// relation of d of the same name. Mutations through either database
// reach the shared instances, so d's stay read-only while the overlay
// is in use.
func (d *Database) Overlay(ins ...*Instance) *Database {
	o := &Database{rels: make(map[string]*Instance, len(d.rels)+len(ins))}
	for name, in := range d.rels {
		o.rels[name] = in
	}
	for _, in := range ins {
		o.rels[in.Schema.Name] = in
	}
	for name := range o.rels {
		o.order = append(o.order, name)
	}
	sort.Strings(o.order)
	return o
}

// Relations returns the relation names in sorted order.
func (d *Database) Relations() []string { return d.order }

// Instance returns the instance of the named relation, or nil.
func (d *Database) Instance(name string) *Instance { return d.rels[name] }

// Schema returns the schema of the named relation, or nil.
func (d *Database) Schema(name string) *Schema {
	if in := d.rels[name]; in != nil {
		return in.Schema
	}
	return nil
}

// Add inserts a tuple into the named relation.
func (d *Database) Add(rel string, t Tuple) error {
	in := d.rels[rel]
	if in == nil {
		return fmt.Errorf("relation: unknown relation %s", rel)
	}
	return in.Add(t)
}

// MustAdd is Add that panics on error; vals are plain strings.
func (d *Database) MustAdd(rel string, vals ...string) {
	if err := d.Add(rel, T(vals...)); err != nil {
		panic(err)
	}
}

// Contains reports whether the named relation holds the tuple.
func (d *Database) Contains(rel string, t Tuple) bool {
	in := d.rels[rel]
	return in != nil && in.Contains(t)
}

// Clone returns a deep copy of the database (schemas shared).
func (d *Database) Clone() *Database {
	cp := &Database{rels: make(map[string]*Instance, len(d.rels)), order: append([]string(nil), d.order...)}
	for name, in := range d.rels {
		cp.rels[name] = in.Clone()
	}
	return cp
}

// Warm populates every instance's lazily-built tuple-order cache
// (Instance.Tuples sorts on first use). Call it before sharing the
// database read-only across goroutines: afterwards concurrent readers
// never write, so no synchronization is needed on the read path.
func (d *Database) Warm() {
	if d == nil {
		return
	}
	for _, in := range d.rels {
		in.Warm()
	}
}

// UnionInto adds all tuples of o into d. Relations of o missing from d
// are added with o's schema.
func (d *Database) UnionInto(o *Database) {
	for _, name := range o.order {
		if _, ok := d.rels[name]; !ok {
			d.AddSchema(o.rels[name].Schema)
		}
		for _, t := range o.rels[name].Tuples() {
			d.rels[name].MustAdd(t)
		}
	}
}

// Union returns a fresh database with the tuples of both.
func (d *Database) Union(o *Database) *Database {
	u := d.Clone()
	u.UnionInto(o)
	return u
}

// SubsetOf reports whether d ⊆ o: every relation of d exists in o and is
// tuple-wise contained.
func (d *Database) SubsetOf(o *Database) bool {
	for name, in := range d.rels {
		oin := o.rels[name]
		if oin == nil {
			if in.Len() > 0 {
				return false
			}
			continue
		}
		if !in.SubsetOf(oin) {
			return false
		}
	}
	return true
}

// Equal reports whether the two databases hold exactly the same tuples
// over the same relation names.
func (d *Database) Equal(o *Database) bool {
	return d.SubsetOf(o) && o.SubsetOf(d)
}

// TupleCount returns the total number of tuples across all relations.
func (d *Database) TupleCount() int {
	n := 0
	for _, in := range d.rels {
		n += in.Len()
	}
	return n
}

// IsEmpty reports whether every relation is empty.
func (d *Database) IsEmpty() bool { return d.TupleCount() == 0 }

// ActiveDomain returns the sorted set of all values occurring in d.
func (d *Database) ActiveDomain() []Value {
	return shared.Values(shared.SortedIDs(d.InternedIDs(nil)))
}

// InternedIDs merges the set of dictionary ids occurring anywhere in d
// into set (pass nil to start fresh) and returns it. A nil database
// contributes nothing.
func (d *Database) InternedIDs(set []uint64) []uint64 {
	if d == nil {
		return set
	}
	for _, in := range d.rels {
		for _, col := range in.cols {
			for _, id := range col[:in.n] {
				set = SetIDBit(set, id)
			}
		}
	}
	return set
}

// InternedCol returns column col as raw ids in insertion order, or nil
// for an out-of-range column. The slice aliases the instance's storage:
// callers must not modify it and must not hold it across mutations.
func (in *Instance) InternedCol(col int) []int32 {
	if col < 0 || col >= len(in.cols) {
		return nil
	}
	return in.cols[col][:in.n]
}

func (d *Database) String() string {
	var b strings.Builder
	for i, name := range d.order {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(d.rels[name].String())
	}
	return b.String()
}

// SortedValues converts a value set to a sorted slice.
func SortedValues(set map[Value]bool) []Value {
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
