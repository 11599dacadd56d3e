package server

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/cc"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/textq"
)

// POST /v1/mine wraps internal/mine behind the shared serving
// machinery: propose containment constraints from evidence pairs,
// score them, and (in the default complete oracle mode) emit only
// candidates certified by the exact checker. Evidence arrives in one
// of two shapes:
//
//   - inline: the request carries an "evidence" document in the
//     internal/mine grammar (schemas + pairs);
//   - catalog-backed: the request names a registered catalog and a
//     list of db-facts documents ("dbs"); each document is parsed
//     against the entry's schemas and paired with the entry's master
//     data, so evidence pairs share the catalog's memoized Dm.
//
// The candidate budget is clamped to the operator's
// -max-mine-candidates ceiling, like the approximation endpoints'
// -max-approx-candidates.

// MineRequest is the body of POST /v1/mine.
type MineRequest struct {
	// Evidence is a full evidence document (mine grammar). Mutually
	// exclusive with Catalog/DBs.
	Evidence string `json:"evidence,omitempty"`

	// Catalog names a registered entry; DBs carries one textq facts
	// document per evidence database, each paired with the entry's Dm.
	Catalog string   `json:"catalog,omitempty"`
	DBs     []string `json:"dbs,omitempty"`

	// Mining knobs; zero keeps the engine defaults, and max_candidates
	// is additionally clamped to the operator ceiling.
	MinSupport      float64 `json:"min_support,omitempty"`
	MinConfidence   float64 `json:"min_confidence,omitempty"`
	MaxSelectorCard int     `json:"max_selector_card,omitempty"`
	MaxConstants    int     `json:"max_constants,omitempty"`
	MaxCandidates   int     `json:"max_candidates,omitempty"`
	// Oracle is "complete" (default: emit checker-certified constraints
	// only) or "closure" (confidence survivors, validated=false).
	Oracle string `json:"oracle,omitempty"`

	// Budget governs each oracle check (override of the server default,
	// clamped to the operator ceilings).
	Budget *BudgetOverride `json:"budget,omitempty"`
}

// MinedJSON is one emitted constraint.
type MinedJSON struct {
	Name       string  `json:"name"`
	Constraint string  `json:"constraint"`
	Signature  string  `json:"signature"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Validated  bool    `json:"validated"`
}

// MineResponse is the body of a successful /v1/mine call.
type MineResponse struct {
	RequestID   string      `json:"request_id"`
	Constraints []MinedJSON `json:"constraints"`
	Pairs       int         `json:"pairs"`
	Enumerated  int         `json:"enumerated"`
	Survivors   int         `json:"survivors"`
	Subsumed    int         `json:"subsumed"`
	Rejected    int         `json:"oracle_rejected"`
	Truncated   bool        `json:"truncated,omitempty"`
}

// minePairs resolves the request's evidence shape into pairs. The
// returned release function, when non-nil, holds the catalog entry's
// read lock for the duration of the mining run.
func (s *Server) minePairs(req *MineRequest) ([]mine.Pair, func(), error) {
	if req.Evidence != "" {
		if req.Catalog != "" || len(req.DBs) > 0 {
			return nil, nil, httpErrorf(http.StatusBadRequest,
				"evidence conflicts with catalog/dbs")
		}
		pairs, err := mine.ParseEvidence(req.Evidence)
		if err != nil {
			return nil, nil, httpErrorf(http.StatusBadRequest, "%v", err)
		}
		return pairs, nil, nil
	}
	if req.Catalog == "" {
		return nil, nil, httpErrorf(http.StatusBadRequest,
			"either evidence or catalog+dbs is required")
	}
	if len(req.DBs) == 0 {
		return nil, nil, httpErrorf(http.StatusBadRequest,
			"catalog mining needs at least one dbs document")
	}
	e := s.catalog.Get(req.Catalog)
	if e == nil {
		return nil, nil, httpErrorf(http.StatusNotFound, "catalog %q is not registered", req.Catalog)
	}
	// Parse before locking: e.Schemas and the e.Dm pointer are fixed at
	// registration; the lock guards what Dm holds while mining reads it.
	pairs := make([]mine.Pair, 0, len(req.DBs))
	for i, src := range req.DBs {
		d, err := textq.ParseFacts(src, e.Schemas)
		if err != nil {
			return nil, nil, httpErrorf(http.StatusBadRequest, "dbs[%d]: %v", i, err)
		}
		pairs = append(pairs, mine.Pair{D: d, Dm: e.Dm})
	}
	e.rlock()
	return pairs, e.mu.RUnlock, nil
}

// serveMine handles POST /v1/mine.
func (s *Server) serveMine(ctx context.Context, id string, req *MineRequest, w http.ResponseWriter, _ *http.Request) {
	pairs, release, err := s.minePairs(req)
	if err != nil {
		writeError(w, id, statusOf(err), "%s", err.Error())
		return
	}
	if release != nil {
		defer release()
	}
	maxCand := req.MaxCandidates
	if maxCand <= 0 || maxCand > s.cfg.MaxMineCandidates {
		maxCand = s.cfg.MaxMineCandidates
	}
	opt := mine.Options{
		MinSupport:      req.MinSupport,
		MinConfidence:   req.MinConfidence,
		MaxSelectorCard: req.MaxSelectorCard,
		MaxConstants:    req.MaxConstants,
		MaxCandidates:   maxCand,
		Oracle:          mine.OracleMode(req.Oracle),
		Workers:         s.cfg.CheckWorkers,
		Budget:          s.effectiveBudget(req.Budget),
	}
	res, err := mine.Mine(ctx, pairs, opt)
	if err != nil {
		writeError(w, id, statusOf(err), "%s", err.Error())
		return
	}
	out := &MineResponse{
		RequestID:   id,
		Constraints: []MinedJSON{},
		Pairs:       res.Stats.Pairs,
		Enumerated:  res.Stats.Enumerated,
		Survivors:   res.Stats.Survivors,
		Subsumed:    res.Stats.Subsumed,
		Rejected:    res.Stats.OracleRejected,
		Truncated:   res.Stats.Truncated,
	}
	for _, m := range res.Mined {
		text := ""
		if src, err := textq.FormatConstraints(cc.NewSet(m.Constraint)); err == nil {
			text = strings.TrimRight(src, "\n")
		}
		out.Constraints = append(out.Constraints, MinedJSON{
			Name:       m.Constraint.Name,
			Constraint: text,
			Signature:  m.Signature,
			Support:    m.Support,
			Confidence: m.Confidence,
			Validated:  m.Validated,
		})
	}
	obs.ServeVerdicts.Inc("mined")
	writeJSON(w, http.StatusOK, out)
}
