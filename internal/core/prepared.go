package core

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/cc"
	"repro/internal/query"
	"repro/internal/relation"
)

// Prepared is the part of an RCDP check's setup that depends only on
// (D, Dm, V), not on the query: the partial-closure precondition
// (D, Dm) ⊨ V that the certificate search of Proposition 3.3 assumes,
// D's schema map, the inert-position and relevant-value analyses, and
// the constants of D, Dm and V that Adom starts from. Checks of many
// queries over one database (a batch, the rechecks after a mutation,
// the candidates of an approximation lattice) share one handle through
// Checker.RCDPPreparedCtx, so only Q's constants, Q(D), the tableaux and
// the valuation searches are set up per check.
//
// The setup is lazy: the first check that needs it computes it under
// its own governance gate. A D that is not partially closed is
// remembered, and every later check gets the same error; a budget or
// context stop is not, so the next check retries under its own gate.
// The setup records the generation of every instance of D and Dm, and a
// check that finds one moved (the databases were mutated in between)
// redoes it. Concurrent checks on one handle are safe; mutating D or Dm
// while a check runs is not, as for every check.
//
// A handle holds its databases alive, so it should live no longer than
// the request or mutation that made it.
type Prepared struct {
	d, dm *relation.Database
	v     *cc.Set

	mu sync.Mutex
	st *preparedState // nil until the first check sets it up
}

// Prepare returns a handle for checking queries over (D, Dm, V). It
// does no work; see Prepared.
func Prepare(d, dm *relation.Database, v *cc.Set) *Prepared {
	return &Prepared{d: d, dm: dm, v: v}
}

// errNotPartiallyClosed reports a D that violates the precondition
// (D, Dm) ⊨ V of RCDP and bounded RCDP.
var errNotPartiallyClosed = errors.New("core: D is not partially closed with respect to (Dm, V)")

// preparedState is one setup of a Prepared. It is read-only once built
// and valid while the instances of D and Dm keep the generations it
// recorded.
type preparedState struct {
	gens []instanceGen
	// notClosed reports that (D, Dm) ⊭ V; the fields below are then
	// unset.
	notClosed bool

	schemas     map[string]*relation.Schema
	adom        adomBase
	constrained map[string]map[int]bool // inert-position analysis of V
	rv          *relevantValues         // without Q's constants
}

// instanceGen is one instance of D or Dm and its generation at setup.
type instanceGen struct {
	in  *relation.Instance
	gen uint64
}

// state returns the handle's setup, computing it under gate when there
// is none yet or D or Dm has moved since.
func (p *Prepared) state(gate *query.Gate) (*preparedState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st == nil || !slices.Equal(p.st.gens, instanceGens(p.d, p.dm)) {
		st, err := newPreparedState(p.d, p.dm, p.v, gate)
		if err != nil {
			return nil, err // not kept: the next check retries
		}
		p.st = st
	}
	if p.st.notClosed {
		return nil, errNotPartiallyClosed
	}
	return p.st, nil
}

func newPreparedState(d, dm *relation.Database, v *cc.Set, gate *query.Gate) (*preparedState, error) {
	st := &preparedState{gens: instanceGens(d, dm)}
	if ok, err := v.SatisfiedGate(d, dm, gate); err != nil {
		return nil, err
	} else if !ok {
		st.notClosed = true
		return st, nil
	}
	st.schemas = schemasOf(d)
	st.adom = newAdomBase(d, dm, v)
	st.constrained = inertPositions(v)
	st.rv = computeRelevantValues(v, d, dm)
	return st, nil
}

// instanceGens records every instance of the databases with its
// generation; nil databases have none.
func instanceGens(dbs ...*relation.Database) []instanceGen {
	n := 0
	for _, db := range dbs {
		if db != nil {
			n += len(db.Relations())
		}
	}
	out := make([]instanceGen, 0, n)
	for _, db := range dbs {
		if db == nil {
			continue
		}
		for _, rel := range db.Relations() {
			in := db.Instance(rel)
			out = append(out, instanceGen{in: in, gen: in.Generation()})
		}
	}
	return out
}
