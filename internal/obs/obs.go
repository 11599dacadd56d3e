// Package obs is the zero-dependency observability layer of the
// completeness engines: a concurrent metrics registry (atomic counters,
// gauges and bucketed latency histograms), a lightweight structured
// tracer emitting JSONL events, and an HTTP exposition surface
// (Prometheus text format, expvar JSON and net/http/pprof).
//
// # Design
//
// The engine packages (core, cq, cc, query, relation) charge a fixed
// set of process-global metrics declared below. Hot loops never touch
// an atomic per event: they accumulate into stack-local counters and
// flush once per evaluation, mirroring the gateState batching of the
// cq join engine, so the instrumented path stays within measurement
// noise of the uninstrumented one (see BenchmarkObsOverhead and the
// EXPERIMENTS.md instrumentation-overhead series). SetEnabled(false)
// turns every flush into a no-op for ablation benchmarks.
//
// Tracing is opt-in: SetTracer installs a process-global tracer and
// engines emit coarse-grained events (check lifecycle, per-disjunct
// search summaries, cache builds, gate trips) only while one is
// installed; Tracing() is a single atomic load, so the disabled path
// costs nothing. See trace.go for the event schema.
//
// The exposition surface is wired by Handler/Serve: the relcheck and
// relbench CLIs expose it behind their -metrics flag, and
// core.BudgetStats consumers read the same counters through the
// registry snapshot.
package obs

import "sync/atomic"

// enabled gates every metric write; default on. Disabling exists for
// the instrumented-vs-uninstrumented overhead ablation, not for
// production use — the whole design keeps the enabled path free enough
// to leave on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled toggles metric collection process-wide and returns the
// previous setting, so callers can restore it:
// defer obs.SetEnabled(obs.SetEnabled(false)).
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// Default is the process-global registry all engine metrics live in.
// The HTTP handler and the expvar snapshot read it; tests may create
// private registries with NewRegistry.
var Default = NewRegistry()

// The engine metric set. Every instrumented package charges these
// process-global instruments; they are declared centrally so the
// exposition names stay consistent and greppable.
var (
	// Evals counts completed tableau evaluations: one per tableau of a
	// cq.AnswerIDsGate call (the answer evaluation of CQs, UCQs, ∃FO⁺
	// and datalog rounds) and one per cq.DeltaProbe.Run. Counts are
	// batched: a one-shot evaluation charges them when it ends, a
	// DeltaProbe when it is flushed — for an RCDP check, once per
	// witness checker rather than once per valuation. The same holds
	// for JoinRows, IndexProbes, FullScans and CardinalityCuts.
	Evals = NewCounter("relcomp_cq_evals_total",
		"completed tableau join enumerations")
	// JoinRows counts candidate join rows enumerated by the cq join
	// engine (the same unit the row-step budget charges).
	JoinRows = NewCounter("relcomp_cq_join_rows_total",
		"candidate join rows enumerated")
	// IndexProbes counts join steps answered from a column hash index.
	IndexProbes = NewCounter("relcomp_cq_index_probes_total",
		"join steps answered by an index bucket lookup")
	// FullScans counts join steps that fell back to a full instance scan.
	FullScans = NewCounter("relcomp_cq_full_scans_total",
		"join steps answered by a full instance scan")
	// CardinalityCuts counts plain-join branches the cardinality cut
	// pruned: a bound key with fewer rows than the self-joined
	// templates that need pairwise-distinct rows carrying it (see
	// DESIGN.md, "Cardinality cut"). Batched like JoinRows.
	CardinalityCuts = NewCounter("relcomp_cq_cardinality_cuts_total",
		"plain-join branches pruned by the cardinality cut")
	// TableauBuilds counts tableau compilations (compiled-query cache
	// misses plus direct BuildTableau calls).
	TableauBuilds = NewCounter("relcomp_cq_tableau_builds_total",
		"tableau compilations (compiled-query cache misses)")
	// CompiledLookups counts compiled-query cache lookups; hits are
	// CompiledLookups - TableauBuilds (up to direct BuildTableau calls).
	CompiledLookups = NewCounter("relcomp_cq_compiled_lookups_total",
		"compiled-query cache lookups")
	// PDmHits counts master-side projection p(Dm) cache hits.
	PDmHits = NewCounter("relcomp_cc_pdm_cache_hits_total",
		"master-side projection cache hits")
	// PDmMisses counts master-side projection p(Dm) cache misses
	// (projection evaluations over the master data).
	PDmMisses = NewCounter("relcomp_cc_pdm_cache_misses_total",
		"master-side projection cache misses")
	// PDmPatches counts master-side projections extended by an insert
	// batch (on a copy) instead of rebuilt on their next use.
	PDmPatches = NewCounter("relcomp_cc_pdm_cache_patches_total",
		"master-side projection cache incremental patches")
	// IndexBuilds counts posting-column index materializations in the
	// relation substrate.
	IndexBuilds = NewCounter("relcomp_relation_index_builds_total",
		"column posting-index builds")
	// DictSize gauges the number of distinct values interned in the
	// process-wide dictionary (relation.Shared). It only grows: ids are
	// never reused.
	DictSize = NewGauge("relcomp_relation_dict_values",
		"distinct values in the shared interning dictionary")
	// Valuations counts candidate valuations inspected by the
	// completeness search across all disjuncts and checks.
	Valuations = NewCounter("relcomp_core_valuations_total",
		"candidate valuations inspected by the completeness search")
	// HeadCuts counts the subtrees the RCDP search cut because Q(D)
	// already answers their head: each stands for every complete
	// valuation below it, none of which could be a witness.
	HeadCuts = NewCounter("relcomp_core_head_cuts_total",
		"valuation subtrees cut at an already-answered head")
	// NogoodJumps counts the nogoods the RCDP search drew from rejected
	// valuations that skipped further valuations: each unwound the
	// walk past the rejected leaf's slot, or restricted a slot's
	// remaining values.
	NogoodJumps = NewCounter("relcomp_core_nogood_jumps_total",
		"rejected valuations whose nogood skipped further valuations")
	// RecheckReused counts incremental rechecks answered from the cached
	// verdict because the mutation passed the invisibility gate
	// (core.Delta.WitnessReusable).
	RecheckReused = NewCounter("relcomp_core_recheck_reused_total",
		"incremental rechecks answered from the cached verdict")
	// RecheckCold counts incremental rechecks that fell back to a full
	// RCDP search.
	RecheckCold = NewCounter("relcomp_core_recheck_cold_total",
		"incremental rechecks that re-ran the full search")
	// PoolTasks counts branch tasks executed by the parallel search
	// worker pool.
	PoolTasks = NewCounter("relcomp_core_pool_tasks_total",
		"branch tasks executed by the worker pool")
	// PoolBusyNS accumulates wall-clock nanoseconds worker goroutines
	// (including the submitting caller) spent executing branch tasks;
	// together with PoolTasks and PoolWorkers it yields utilization.
	PoolBusyNS = NewCounter("relcomp_core_pool_busy_nanoseconds_total",
		"nanoseconds spent executing pool tasks")
	// PoolWorkers gauges the goroutines currently draining pool tasks.
	PoolWorkers = NewGauge("relcomp_core_pool_workers",
		"goroutines currently draining pool tasks")
	// Checks counts governed checks by kind (rcdp, rcqp, bounded-rcdp,
	// bounded-rcqp).
	Checks = NewCounterVec("relcomp_core_checks_total",
		"completeness checks started", "check")
	// Verdicts counts finished checks by verdict string (complete,
	// incomplete, unknown; yes/no/unknown for RCQP).
	Verdicts = NewCounterVec("relcomp_core_verdicts_total",
		"completeness check outcomes", "verdict")
	// Exhaustions counts Unknown verdicts by the governance dimension
	// that ran out (cancelled, deadline, valuations, join-rows, tuples).
	Exhaustions = NewCounterVec("relcomp_core_exhaustions_total",
		"governed checks stopped by budget exhaustion", "reason")
	// GateTrips counts governance gates tripping for the first time, by
	// reason; a gate trips at most once however many loops observe it.
	GateTrips = NewCounterVec("relcomp_gate_trips_total",
		"governance gates tripped", "reason")
	// CheckSeconds is the wall-clock latency histogram of governed
	// checks (all kinds).
	CheckSeconds = NewHistogram("relcomp_core_check_seconds",
		"completeness check latency", DefBuckets)
)

// The approximation metric set (package internal/approx): the
// specialization/generalization lattice search and the witness-driven
// acquisition-advice loop.
var (
	// ApproxCandidates counts candidate queries the approximation
	// lattice search submitted to the oracle (certified or not).
	ApproxCandidates = NewCounter("relcomp_approx_candidates_total",
		"approximation candidates submitted to the oracle checker")
	// ApproxCertified counts oracle-certified approximation results by
	// kind (specialization, generalization).
	ApproxCertified = NewCounterVec("relcomp_approx_certified_total",
		"oracle-certified complete approximations", "kind")
	// AdviceRounds counts witness-acquisition rounds of the advice loop
	// (one RecheckDeltaCtx round trip each).
	AdviceRounds = NewCounter("relcomp_approx_advice_rounds_total",
		"acquisition-advice witness rounds")
	// AdviceFlips counts advice batches certified to flip the verdict
	// from incomplete to complete.
	AdviceFlips = NewCounter("relcomp_approx_advice_flips_total",
		"advice batches certified to flip the verdict to complete")
	// ApproxSeconds is the wall-clock latency histogram of approximation
	// engine calls (Approximate and Advise alike).
	ApproxSeconds = NewHistogram("relcomp_approx_seconds",
		"approximation engine call latency", DefBuckets)
)

// The constraint-mining metric set (package internal/mine): level-wise
// candidate enumeration over evidence pairs with oracle validation.
var (
	// MineRuns counts Mine invocations.
	MineRuns = NewCounter("relcomp_mine_runs_total",
		"constraint-mining runs")
	// MineCandidates counts scored candidate constraints across runs.
	MineCandidates = NewCounter("relcomp_mine_candidates_total",
		"constraint candidates enumerated and scored")
	// MineEmitted counts constraints that survived scoring, subsumption
	// and the completeness oracle.
	MineEmitted = NewCounter("relcomp_mine_emitted_total",
		"mined constraints emitted")
	// MineOracleRejections counts confidence survivors the completeness
	// oracle refuted.
	MineOracleRejections = NewCounter("relcomp_mine_oracle_rejections_total",
		"mined candidates rejected by the completeness oracle")
	// MineSeconds is the wall-clock latency histogram of Mine runs.
	MineSeconds = NewHistogram("relcomp_mine_seconds",
		"constraint-mining run latency", DefBuckets)
)

// The quantitative-completeness metric set (core.DegreeCtx): counting
// candidate valuations to score verdicts as degrees in [0, 1].
var (
	// DegreeChecks counts degree measurements by exactness (exact,
	// sampled).
	DegreeChecks = NewCounterVec("relcomp_degree_checks_total",
		"degree-of-completeness measurements", "mode")
	// DegreeCandidates counts candidate valuations inspected by degree
	// measurements.
	DegreeCandidates = NewCounter("relcomp_degree_candidates_total",
		"candidate valuations inspected by degree measurements")
	// DegreeCounterexamples counts counterexample valuations seen by
	// degree measurements.
	DegreeCounterexamples = NewCounter("relcomp_degree_counterexamples_total",
		"counterexample valuations seen by degree measurements")
)

// The serving-layer metric set (package internal/server / cmd/relserve).
// Declared here with the engine metrics so every relcomp exposition
// name lives in one place.
var (
	// ServeRequests counts HTTP check requests by endpoint (rcdp, rcqp,
	// bounded, catalog), admitted or not.
	ServeRequests = NewCounterVec("relserve_requests_total",
		"completeness-service requests received", "endpoint")
	// ServeRejections counts requests refused by admission control, by
	// reason (queue-full, draining).
	ServeRejections = NewCounterVec("relserve_rejected_total",
		"completeness-service requests rejected by admission control", "reason")
	// ServeVerdicts counts served check responses by verdict string.
	ServeVerdicts = NewCounterVec("relserve_verdicts_total",
		"completeness-service check responses by verdict", "verdict")
	// ServeInflight gauges requests admitted and not yet answered
	// (queued plus executing).
	ServeInflight = NewGauge("relserve_inflight_requests",
		"admitted completeness-service requests in flight")
	// ServeSeconds is the admission-to-response latency histogram of
	// admitted check requests (queue wait included).
	ServeSeconds = NewHistogram("relserve_request_seconds",
		"completeness-service request latency", DefBuckets)
	// ServeQueryCache counts compiled-query cache lookups of the
	// serving layer by result (hit, miss).
	ServeQueryCache = NewCounterVec("relserve_query_cache_total",
		"serving-layer compiled-query cache lookups", "result")
	// ServeQueueOccupancy gauges admitted requests waiting for a worker
	// slot (executing requests excluded): rising occupancy is the
	// leading saturation indicator, visible before 429s start.
	ServeQueueOccupancy = NewGauge("relserve_queue_occupancy",
		"admitted completeness-service requests waiting for a worker slot")
	// CatalogLockWait is the histogram of time spent waiting for a
	// catalog entry's lock, read or write side: by checks, batches and
	// mining before they read the entry, and by mutations before they
	// apply or publish.
	CatalogLockWait = NewHistogram("relcomp_catalog_lock_wait_seconds",
		"wait for a catalog entry's lock", DefBuckets)
	// RouteRequests counts router-mode forwards by backend.
	RouteRequests = NewCounterVec("relserve_route_requests_total",
		"router-mode requests forwarded, by backend", "backend")
	// RouteRetries counts router-mode failovers a backend received
	// because an earlier ring candidate was ejected or failed.
	RouteRetries = NewCounterVec("relserve_route_retries_total",
		"router-mode failovers received from ejected or failing peers, by backend", "backend")
	// RouteFailures counts router-mode forwards that failed on
	// connection error, by backend.
	RouteFailures = NewCounterVec("relserve_route_failures_total",
		"router-mode forwards failed on connection error, by backend", "backend")
	// RouteEjections counts backends ejected from the routing rotation
	// after a connection failure, by backend.
	RouteEjections = NewCounterVec("relserve_route_ejections_total",
		"router-mode backends ejected from the routing rotation, by backend", "backend")
)
