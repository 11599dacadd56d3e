# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go

.PHONY: ci build vet test relperf-test race bench bench-smoke bench-diff bench-workers fmt-check vuln fuzz-smoke cover-check doc-sync examples-build examples server-smoke cluster-smoke mutate-smoke approx-smoke mine-smoke loc

ci: fmt-check vet build examples test relperf-test race bench-smoke bench-diff cover-check doc-sync fuzz-smoke vuln server-smoke cluster-smoke mutate-smoke approx-smoke mine-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The relperf benchmark is its own module (relperf/go.mod), so
# `go test ./...` at the root does not reach its tests: the workload
# builders, the answer checks and the per-layer trace reduction.
relperf-test:
	cd relperf && $(GO) test .

# Shared-state code paths run under the race detector: the parallel
# valuation search (core), the admission-controlled serving layer
# (server), the cross-request caches it leans on (cq compiled tableaux,
# cc p(Dm) memoization), and the interned storage layer (relation: the
# shared dictionary, its sort-order cache, and the lazy posting-list
# builds), including the join engine's differential test against the
# naive reference evaluator (cq), and the approximation engine (approx:
# oracle calls fan out through the same worker pool) plus the
# constraint miner (mine: its oracle re-validation runs the parallel
# checker across evidence pairs), and the FO/FP reductions (reductions,
# datalog: the bounded search evaluates one program from many workers).
race:
	$(GO) test -race ./internal/core/... ./internal/server/... ./internal/cq/... ./internal/cc/... ./internal/relation/... ./internal/approx/... ./internal/mine/... ./internal/reductions/... ./internal/datalog/...

# End-to-end relserve smoke: random port, one Example 2.1 RCDP request
# must come back "complete", /healthz must answer, SIGTERM must drain
# and exit 0.
server-smoke:
	sh scripts/server_smoke.sh

# Scale-out smoke: two relserve backends plus a consistent-hash router
# on random ports, driven by relload; verdicts through the router must
# match the direct-backend run, with zero transport errors and zero
# drops, and a batch burst through the router must stay clean.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Incremental-maintenance smoke: register a maintained catalog with a
# watched incomplete query, insert the missing support edge through
# POST /v1/catalog/{name}/insert, and assert the maintained verdict
# flips to complete in place (no restart, no re-posted check).
mutate-smoke:
	sh scripts/mutate_smoke.sh

# Acquisition-advice smoke: register a maintained catalog with a
# watched incomplete query, ask POST /v1/advise what to acquire, feed
# the returned all_facts to POST /v1/catalog/{name}/insert, and assert
# the maintained verdict flips to complete — the full advice loop over
# live HTTP.
approx-smoke:
	sh scripts/approx_smoke.sh

# Mining + degree smoke: relmine recovers planted constraints from
# generated evidence with full precision, the same evidence document
# mines over POST /v1/mine, and a degree-requesting /v1/rcdp call
# returns an exact quantitative completeness score — CLI and HTTP legs
# of the relmine pipeline end to end.
mine-smoke:
	sh scripts/mine_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of every benchmark in every package: catches bit-rotted
# benchmark code in CI without paying for real measurement runs, plus
# one quick relbench sweep that must run to completion.
# Every Table I ∀∃-3SAT record must carry a nonzero join_rows work
# count: a zero means the counter no longer sees the check's join.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(GO) build -o /tmp/relbench-smoke ./cmd/relbench
	/tmp/relbench-smoke -quick -json > /tmp/relbench-smoke.json
	awk '/"table":/ { t = $$2 } /"name":/ { n = $$2 } \
		/"join_rows":/ && t == "\"I\"," && n == "\"forall-exists-3sat\"," { fe++; if ($$2 + 0 == 0) bad = 1 } \
		END { if (fe == 0 || bad) { print "bench-smoke: no Table I forall-exists-3sat record, or one with join_rows 0"; exit 1 } }' \
		/tmp/relbench-smoke.json
	# Under a budget every table must still finish: stopped checks are
	# recorded as unknown, not reported as failures.
	/tmp/relbench-smoke -quick -json -workers 1 -steps 500 > /dev/null
	rm -f /tmp/relbench-smoke /tmp/relbench-smoke.json

# Bench-regression gate: three quick single-worker relbench runs are
# median-merged and compared against the committed BENCH_BASELINE.json
# by scripts/bench_diff.go. The comparison is scale-normalized (see the
# script), so it passes on any machine speed but fails when one
# benchmark regresses >25% relative to the rest of the suite. The same
# script fails when a record's join_rows or valuations, exact at
# -workers 1, rose more than 1% over the baseline's. Refresh
# the baseline after intentional performance changes with:
#   go run ./scripts -baseline BENCH_BASELINE.json -write <runs...>
bench-diff:
	$(GO) build -o /tmp/relbench-diff ./cmd/relbench
	/tmp/relbench-diff -quick -json -workers 1 > /tmp/relbench-d1.json
	/tmp/relbench-diff -quick -json -workers 1 > /tmp/relbench-d2.json
	/tmp/relbench-diff -quick -json -workers 1 > /tmp/relbench-d3.json
	$(GO) run ./scripts -baseline BENCH_BASELINE.json /tmp/relbench-d1.json /tmp/relbench-d2.json /tmp/relbench-d3.json
	rm -f /tmp/relbench-diff /tmp/relbench-d1.json /tmp/relbench-d2.json /tmp/relbench-d3.json

# Non-test Go lines, the count ROADMAP's "non-test Go lines" criteria
# use: every *.go file except *_test.go, outside relperf/ (its own
# module) and .bench_build/. It prints the count only; ci does not
# gate on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './relperf/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Sequential-vs-parallel series only (see EXPERIMENTS.md).
bench-workers:
	$(GO) test -bench='Workers' -run=^$$ .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Every example program must keep compiling (go build ./... covers them
# too, but a dedicated target makes the failure unambiguous in CI logs).
examples-build:
	$(GO) build ./examples/...

# Every example program must also keep printing what it printed when its
# expected_output.txt was recorded: each one is built, run, and its
# stdout diffed against examples/<name>/expected_output.txt. The
# examples are deterministic, so any difference is a behavior change.
examples: examples-build
	@set -e; for d in examples/*/; do \
		name=$$(basename $$d); \
		$(GO) run ./$$d > /tmp/example-$$name.out; \
		if ! diff -u $$d/expected_output.txt /tmp/example-$$name.out; then \
			echo "examples: $$name output differs from $$d/expected_output.txt"; rm -f /tmp/example-$$name.out; exit 1; \
		fi; \
		rm -f /tmp/example-$$name.out; \
		echo "examples: $$name ok"; \
	done

# Doc/CLI sync: every flag defined in the commands must be documented
# in README.md. Catches flags added without a docs pass. Scans every
# .go file under cmd/ (not just main.go) so commands that split flag
# definitions across files stay covered, and first checks that every
# cmd/ subdirectory actually contributes a main.go to the glob — a new
# command that dodged the scan would silently exempt its flags.
doc-sync:
	@set -e; missing=0; \
	for d in cmd/*/; do \
		if [ ! -f "$$d/main.go" ]; then \
			echo "doc-sync: $$d has no main.go (scan glob would miss it)"; missing=1; \
		fi; \
	done; \
	flags=$$(grep -hoE 'flag\.[A-Za-z0-9]+\((&[A-Za-z0-9.]+, )?"[a-z-]+"' cmd/*/*.go \
		| grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); \
	for f in $$flags; do \
		if ! grep -q -- "-$$f" README.md; then \
			echo "doc-sync: flag -$$f is not documented in README.md"; missing=1; \
		fi; \
	done; \
	if [ "$$missing" != 0 ]; then exit 1; fi; \
	echo "doc-sync: all $$(echo "$$flags" | wc -w) CLI flags documented in README.md"

# Known-vulnerability scan. Skipped with a notice when govulncheck is
# not on PATH (the CI image has no network to install it); when present
# it must pass.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping"; \
	fi

# Native fuzz smoke: each fuzz target runs for a short budget (go test
# accepts one -fuzz pattern per invocation), catching parser/formatter
# regressions, server JSON-decoder panics or 5xx answers, a request
# decoder that disagrees with encoding/json, and posting-set builds that
# differ from the reference builder, without a long fuzz session.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzParseSchemas -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzParseDatabase -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzFactScanner -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzParseQuery -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzParseConstraints -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/textq/ -run='^$$' -fuzz=FuzzMutationBatch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mine/ -run='^$$' -fuzz=FuzzMineEvidence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/relation/ -run='^$$' -fuzz=FuzzPostingSet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzDecoders -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzDecodeBody -fuzztime=$(FUZZTIME)

# Coverage floors for the decision-procedure packages (set ~2 points
# under the measured coverage at the time the floor was introduced so
# legitimate refactors have headroom but a dropped test suite fails).
cover-check:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$1 at $$pct% is below floor $$2%"; exit 1; fi; \
		echo "cover: $$1 $$pct% (floor $$2%)"; \
	}; \
	check ./internal/core/ 87; \
	check ./internal/cq/ 84.5; \
	check ./internal/cc/ 84.5; \
	check ./internal/server/ 81; \
	check ./internal/approx/ 83; \
	check ./internal/mine/ 80; \
	check ./internal/datalog/ 95; \
	check ./internal/relation/ 80.5
