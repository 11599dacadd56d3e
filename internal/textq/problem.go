package textq

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// ProblemSource bundles the textual inputs of one completeness-checking
// problem, all in this package's grammar. Empty optional fields default
// to the natural empty object (no master schemas, empty databases, no
// constraints). It is the shared input shape of the relcheck CLI and
// the relserve HTTP service.
type ProblemSource struct {
	// Schemas declares the database relations R (required).
	Schemas string
	// MasterSchemas declares the master relations Rm (optional).
	MasterSchemas string
	// DB lists the facts of the partially closed database D (optional;
	// RCQP needs no D).
	DB string
	// Master lists the master data facts Dm (optional).
	Master string
	// Constraints lists the containment constraints V (optional).
	Constraints string
	// Query is the query Q (required).
	Query string
}

// Problem is a fully parsed completeness-checking problem.
type Problem struct {
	Schemas       map[string]*relation.Schema
	MasterSchemas map[string]*relation.Schema
	D             *relation.Database
	Dm            *relation.Database
	V             *cc.Set
	Q             qlang.Query
}

// ParseProblem parses every part of src, wiring the parts together the
// way the deciders expect: facts are checked against their schema set,
// constraints against the database schemas and validated against Dm.
// Errors name the offending part. The Schemas and Query parts are
// required; ParseQuery of the query part may be skipped by callers that
// cache parsed queries (see ParseProblemData).
func ParseProblem(src ProblemSource) (*Problem, error) {
	p, err := ParseProblemData(src)
	if err != nil {
		return nil, err
	}
	if src.Query == "" {
		return nil, fmt.Errorf("textq: query: missing")
	}
	q, err := ParseQuery(src.Query, p.Schemas)
	if err != nil {
		return nil, fmt.Errorf("textq: query: %w", err)
	}
	p.Q = q
	return p, nil
}

// ParseProblemData parses the data parts of src — schemas, databases
// and constraints — leaving Q nil. Serving layers that memoize parsed
// queries per catalog use it for the per-request remainder.
func ParseProblemData(src ProblemSource) (*Problem, error) {
	if src.Schemas == "" {
		return nil, fmt.Errorf("textq: schemas: missing")
	}
	schemas, err := ParseSchemas(src.Schemas)
	if err != nil {
		return nil, fmt.Errorf("textq: schemas: %w", err)
	}
	mSchemas := map[string]*relation.Schema{}
	if src.MasterSchemas != "" {
		if mSchemas, err = ParseSchemas(src.MasterSchemas); err != nil {
			return nil, fmt.Errorf("textq: master schemas: %w", err)
		}
	}
	d, err := ParseFacts(src.DB, schemas)
	if err != nil {
		return nil, fmt.Errorf("textq: db: %w", err)
	}
	dm, err := ParseFacts(src.Master, mSchemas)
	if err != nil {
		return nil, fmt.Errorf("textq: master: %w", err)
	}
	vset := cc.NewSet()
	if src.Constraints != "" {
		if vset, err = ParseConstraints(src.Constraints, schemas, dm); err != nil {
			return nil, fmt.Errorf("textq: constraints: %w", err)
		}
	}
	return &Problem{Schemas: schemas, MasterSchemas: mSchemas, D: d, Dm: dm, V: vset}, nil
}
