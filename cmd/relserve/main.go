// Command relserve serves relative-completeness checking over HTTP: a
// long-running JSON service exposing the governed decision procedures
// of internal/core behind a bounded worker pool with admission control
// (see internal/server).
//
// Endpoints:
//
//	POST /v1/rcdp     is D complete for Q relative to (Dm, V)?
//	POST /v1/rcqp     does any complete database exist for Q?
//	POST /v1/bounded  bounded search for FO/FP (undecidable) fragments
//	POST /v1/approximate  complete specializations/generalizations of Q
//	POST /v1/advise   ranked tuples whose acquisition makes D complete
//	POST /v1/batch    many queries against one context, streamed as JSONL
//	POST /v1/mine     propose + validate containment constraints from evidence
//	POST /v1/catalog  register a named (Dm, V) master-data context
//	GET  /v1/catalog  list registered contexts
//	GET  /healthz     process liveness
//	GET  /readyz      readiness (503 while draining)
//
// Request bodies carry the textq problem parts inline, or reference a
// catalog entry by name so master data is parsed and indexed once for
// the whole request stream. Responses carry the three-valued verdict,
// the exhaustion reason and the consumed budget; per-request budget
// overrides are clamped to the -max-* ceilings.
//
// With -route backend1,backend2,... relserve runs as a stateless
// router instead: requests are consistent-hashed by catalog name (else
// query text) onto a backend so warm caches are reused, catalog
// registrations are broadcast to every backend, and GET /v1/backends
// reports per-backend health.
//
// SIGTERM/SIGINT starts a graceful drain: new requests get 503,
// in-flight requests finish (up to -drain-timeout), then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/textq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "relserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var catalogs []string
	var (
		addr          = flag.String("addr", ":8080", "listen address for the JSON API (use :0 for a random port)")
		route         = flag.String("route", "", "run as a router over these comma-separated backend URLs instead of serving checks locally")
		addrFile      = flag.String("addr-file", "", "write the bound listen address to this file (for scripts using -addr :0)")
		workers       = flag.Int("workers", 0, "checks executing concurrently (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 0, "admitted requests waiting beyond -workers before 429 (0 = 2x workers)")
		checkWorkers  = flag.Int("check-workers", 1, "valuation-search workers inside each check (0 = 1, sequential)")
		timeout       = flag.Duration("timeout", 0, "default wall-clock budget per check (0 = unlimited)")
		steps         = flag.Int64("steps", 0, "default join-row step budget per check (0 = unlimited)")
		maxTimeout    = flag.Duration("max-timeout", 0, "ceiling on per-request wall-clock budgets (0 = unlimited)")
		maxValuations = flag.Int("max-valuations", 0, "ceiling on per-request valuation budgets (0 = unlimited)")
		maxSteps      = flag.Int64("max-steps", 0, "ceiling on per-request join-row budgets (0 = unlimited)")
		maxTuples     = flag.Int64("max-tuples", 0, "ceiling on per-request tuple budgets (0 = unlimited)")
		maxApproxCand = flag.Int("max-approx-candidates", 0, "ceiling on oracle calls per /v1/approximate or /v1/advise request (0 = 256)")
		maxMineCand   = flag.Int("max-mine-candidates", 0, "ceiling on candidate constraints per /v1/mine request (0 = 256)")
		maxDegreeVals = flag.Int("max-degree-valuations", 0, "ceiling on per-disjunct valuations of degree-requesting checks (0 = 100000)")
		reprobe       = flag.Duration("reprobe", 0, "with -route: how often an ejected backend is probed for re-admission (0 = 5s)")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight checks")
		metricsAddr   = flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/pprof, /healthz and /readyz on this address (e.g. :9090)")
		tracePath     = flag.String("trace", "", "append JSONL request/search-trace events to this file")
	)
	flag.Func("catalog", "preload a catalog entry from a scenario directory, as name=dir (repeatable; reads r.schema, rm.schema, dm.facts, v.cc)", func(v string) error {
		catalogs = append(catalogs, v)
		return nil
	})
	flag.Parse()

	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		tr := obs.NewTracer(f)
		tr.Timings = true
		obs.SetTracer(tr)
		defer func() {
			obs.SetTracer(nil)
			if err := tr.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "relserve: -trace:", err)
			}
		}()
	}

	if *route != "" {
		if len(catalogs) > 0 {
			return fmt.Errorf("-catalog is backend-only; register catalogs through the router's POST /v1/catalog broadcast")
		}
		backends := strings.Split(*route, ",")
		for i := range backends {
			backends[i] = strings.TrimSpace(backends[i])
		}
		rt, err := server.NewRouter(server.RouterConfig{
			Backends:        backends,
			RetryAfter:      *retryAfter,
			ReprobeInterval: *reprobe,
		})
		if err != nil {
			return err
		}
		obs.SetReady(func() bool { return !rt.Draining() })
		if *metricsAddr != "" {
			maddr, err := obs.Serve(*metricsAddr)
			if err != nil {
				return fmt.Errorf("-metrics: %w", err)
			}
			fmt.Fprintf(os.Stderr, "relserve: metrics on http://%s/metrics\n", maddr)
		}
		banner := fmt.Sprintf("routing to %d backends", len(backends))
		return serveUntilSignal(rt.Handler(), *addr, *addrFile, *drainTimeout, banner, rt.Drain)
	}

	srv := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CheckWorkers: *checkWorkers,
		DefaultBudget: core.Budget{
			Timeout:     *timeout,
			MaxJoinRows: *steps,
		},
		MaxBudget: core.Budget{
			Timeout:       *maxTimeout,
			MaxValuations: *maxValuations,
			MaxJoinRows:   *maxSteps,
			MaxTuples:     *maxTuples,
		},
		RetryAfter:          *retryAfter,
		MaxApproxCandidates: *maxApproxCand,
		MaxMineCandidates:   *maxMineCand,
		MaxDegreeValuations: *maxDegreeVals,
	})
	for _, spec := range catalogs {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-catalog: want name=dir, got %q", spec)
		}
		if err := loadCatalogDir(srv, name, dir); err != nil {
			return fmt.Errorf("-catalog %s: %w", spec, err)
		}
		fmt.Fprintf(os.Stderr, "relserve: catalog %q loaded from %s\n", name, dir)
	}

	// The metrics listener shares the readiness state: during a drain
	// /readyz flips to 503 on both listeners.
	obs.SetReady(func() bool { return !srv.Draining() })
	if *metricsAddr != "" {
		maddr, err := obs.Serve(*metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "relserve: metrics on http://%s/metrics\n", maddr)
	}

	banner := fmt.Sprintf("workers=%d, queue capacity=%d", *workers, srv.Capacity())
	return serveUntilSignal(srv.Handler(), *addr, *addrFile, *drainTimeout, banner, srv.Drain)
}

// serveUntilSignal binds addr, serves h, and on SIGTERM/SIGINT drains
// via drain (backend or router mode) before exiting cleanly.
func serveUntilSignal(h http.Handler, addr, addrFile string, drainTimeout time.Duration, banner string, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "relserve: listening on http://%s (%s)\n", bound, banner)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("-addr-file: %w", err)
		}
	}

	httpSrv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "relserve: %v: draining (timeout %v)\n", sig, drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "relserve: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "relserve: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "relserve: drained, exiting")
	return nil
}

// loadCatalogDir registers one catalog entry from a relgen-style
// scenario directory: r.schema (required), plus rm.schema, dm.facts
// and v.cc when present.
func loadCatalogDir(srv *server.Server, name, dir string) error {
	read := func(base string, required bool) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, base))
		if err != nil {
			if os.IsNotExist(err) && !required {
				return "", nil
			}
			return "", err
		}
		return string(b), nil
	}
	var src textq.ProblemSource
	var err error
	if src.Schemas, err = read("r.schema", true); err != nil {
		return err
	}
	if src.MasterSchemas, err = read("rm.schema", false); err != nil {
		return err
	}
	if src.Master, err = read("dm.facts", false); err != nil {
		return err
	}
	if src.Constraints, err = read("v.cc", false); err != nil {
		return err
	}
	_, err = srv.Catalog().Register(name, src)
	return err
}
