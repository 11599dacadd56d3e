// Package repro is a from-scratch Go reproduction of Wenfei Fan and
// Floris Geerts, "Relative Information Completeness" (PODS 2009;
// extended version ACM TODS 35(4), 2010).
//
// The library decides whether a partially closed database — one
// constrained by master data through containment constraints — has
// complete information to answer a query (RCDP), and whether any
// complete database exists for a query at all (RCQP), for the query and
// constraint languages studied in the paper (CQ, UCQ, ∃FO⁺, FO, FP and
// inclusion dependencies).
//
// The decision procedures live in internal/core. Each has one governed
// entry point (core.RCDPCtx / Checker.RCDPCtx, core.RCQPCtx /
// QPChecker.RCQPCtx) that takes a context and a resource Budget and
// returns a three-valued Verdict (complete / incomplete / unknown)
// together with the Reason a budget dimension was exhausted and the
// BudgetStats consumed. The undecidable FO/FP rows get bounded
// semi-decision procedures (core.BoundedRCDPCtx, core.BoundedRCQPCtx).
//
// All engines report into internal/obs, a zero-dependency metrics
// registry and JSONL search tracer surfaced by the relcheck and
// relbench commands through their -metrics and -trace flags.
//
// See README.md for the architecture and CLI usage, DESIGN.md for the
// system inventory (including the observability design) and
// EXPERIMENTS.md for the reproduction of the paper's complexity tables.
package repro
