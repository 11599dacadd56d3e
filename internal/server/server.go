// Package server implements relserve, the long-running HTTP JSON
// service that puts the completeness-checking stack (internal/core and
// friends) behind a concurrent serving surface.
//
// # Design
//
// Every check endpoint runs through one bounded worker pool with
// admission control: at most Config.Workers checks execute at once, at
// most Config.QueueDepth admitted requests wait for a slot, and
// everything beyond that is refused immediately with 429 and a
// Retry-After hint — the Σ₂ᵖ/Σ₃ᵖ lower bounds of the decision
// procedures mean a saturated service must shed load rather than build
// an unbounded backlog. Admitted requests are governed twice over: the
// HTTP request context (client disconnects cancel the search) and a
// per-request core.Budget assembled from the server defaults, the
// request's optional overrides and the operator ceilings
// (Budget.Clamp), so no request can exceed what the operator allows.
//
// Master data is meant to be registered once in the Catalog and
// referenced by name: catalog entries pin the (Dm, V) pair plus the
// database schemas, so the p(Dm) memos of the Dm instances, the
// lazily built column indexes of Dm and the compiled-tableau cache of
// parsed queries are all shared across the request stream instead of
// being rebuilt per request.
//
// Shutdown is a drain: Drain flips the server to draining (readiness
// probes and new requests see 503), waits for every admitted request
// to finish, and only then lets the process exit. cmd/relserve wires
// it to SIGTERM/SIGINT.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config sizes the serving surface. The zero value is usable: one
// executing check per CPU, a queue twice that deep, sequential search
// inside each check and no budget ceilings.
type Config struct {
	// Workers is the number of checks executing concurrently
	// (0 = runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// slot beyond the executing ones (0 = 2×Workers). Requests beyond
	// Workers+QueueDepth are refused with 429.
	QueueDepth int
	// CheckWorkers is the core valuation-search worker count inside
	// each check (0 = 1, i.e. sequential search: the serving layer gets
	// its parallelism across requests, not within them).
	CheckWorkers int
	// DefaultBudget governs requests that carry no budget override.
	DefaultBudget core.Budget
	// MaxBudget holds the operator ceilings every effective request
	// budget is clamped to (core.Budget.Clamp); zero dimensions are
	// unlimited.
	MaxBudget core.Budget
	// RetryAfter is the hint attached to 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64
	// MaxApproxCandidates is the operator ceiling on oracle calls one
	// /v1/approximate or /v1/advise request may spend; request
	// max_candidates values above it are clamped (default 256).
	MaxApproxCandidates int
	// MaxMineCandidates is the operator ceiling on candidate
	// constraints one /v1/mine request may enumerate and score; request
	// max_candidates values above it are clamped (default 256).
	MaxMineCandidates int
	// MaxDegreeValuations is the operator ceiling on candidate
	// valuations a degree-requesting check may inspect per disjunct;
	// request degree_valuations values above it are clamped
	// (default 100000).
	MaxDegreeValuations int
}

// Server is the relserve HTTP service. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg      Config
	workers  int
	capacity int64
	catalog  *Catalog

	sem      chan struct{} // execution slots
	inflight atomic.Int64  // admitted (queued + executing) requests
	draining atomic.Bool
	wg       sync.WaitGroup // one unit per admitted request
	reqSeq   atomic.Int64

	// beforeCheck, when non-nil, runs inside the worker slot before the
	// request body is processed. Tests use it to hold slots occupied
	// while they probe admission control and draining.
	beforeCheck func()

	mux *http.ServeMux
}

// New builds a Server from cfg, applying the documented defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.CheckWorkers <= 0 {
		cfg.CheckWorkers = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.MaxApproxCandidates <= 0 {
		cfg.MaxApproxCandidates = 256
	}
	if cfg.MaxMineCandidates <= 0 {
		cfg.MaxMineCandidates = 256
	}
	if cfg.MaxDegreeValuations <= 0 {
		cfg.MaxDegreeValuations = 100000
	}
	s := &Server{
		cfg:      cfg,
		workers:  cfg.Workers,
		capacity: int64(cfg.Workers + cfg.QueueDepth),
		catalog:  NewCatalog(),
		sem:      make(chan struct{}, cfg.Workers),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/rcdp", s.checkHandler("rcdp", s.runRCDP))
	s.mux.HandleFunc("/v1/rcqp", s.checkHandler("rcqp", s.runRCQP))
	s.mux.HandleFunc("/v1/bounded", s.checkHandler("bounded", s.runBounded))
	s.mux.HandleFunc("/v1/approximate", handleAdmitted(s, "approximate", s.serveApproximate))
	s.mux.HandleFunc("/v1/advise", handleAdmitted(s, "advise", s.serveAdvise))
	s.mux.HandleFunc("/v1/batch", handleAdmitted(s, "batch", s.serveBatch))
	s.mux.HandleFunc("/v1/mine", handleAdmitted(s, "mine", s.serveMine))
	s.mux.HandleFunc("/v1/catalog", s.catalogHandler)
	s.mux.HandleFunc("POST /v1/catalog/{name}/insert", handleAdmitted(s, "insert", s.serveMutation("insert")))
	s.mux.HandleFunc("POST /v1/catalog/{name}/delete", handleAdmitted(s, "delete", s.serveMutation("delete")))
	s.mux.HandleFunc("GET /v1/catalog/{name}/verdicts", s.verdictsHandler)
	s.mux.HandleFunc("/healthz", obs.HealthzHandler)
	s.mux.HandleFunc("/readyz", s.readyzHandler)
	return s
}

// Handler returns the service's HTTP surface: the three check
// endpoints, the catalog endpoint and the health probes. Metrics live
// on the separate obs.Handler surface (the -metrics listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Catalog returns the master-data catalog for out-of-band registration
// (startup preloading in cmd/relserve, tests).
func (s *Server) Catalog() *Catalog { return s.catalog }

// Draining reports whether Drain has begun: the server refuses new
// work but still finishes admitted requests.
func (s *Server) Draining() bool { return s.draining.Load() }

// Capacity returns the admission bound (executing + queued requests).
func (s *Server) Capacity() int { return int(s.capacity) }

// Drain puts the server into draining mode and waits for every
// admitted request to finish, or for ctx to expire (the error is then
// ctx's). It is idempotent; requests arriving after the first call get
// 503.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit reserves an admission slot; false means the bound is reached.
func (s *Server) admit() bool {
	for {
		n := s.inflight.Load()
		if n >= s.capacity {
			return false
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			obs.ServeInflight.Add(1)
			return true
		}
	}
}

// release returns an admission slot.
func (s *Server) release() {
	s.inflight.Add(-1)
	obs.ServeInflight.Add(-1)
	s.wg.Done()
}

// requestID names a request in the X-Request-Id header, response
// bodies and trace events. It adopts a well-formed incoming
// X-Request-Id — a router forwards its own id, so one id names the
// request on both hops — and otherwise mints a per-process one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("r%06d", s.reqSeq.Add(1))
}

// validRequestID accepts 1–64 bytes of [A-Za-z0-9._-]: enough for any
// minted id, and nothing that could smuggle markup or control bytes
// into headers, bodies or traces.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

func (s *Server) readyzHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}
