#!/usr/bin/env bash
# Builds the relperf benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash relperf/run.sh --workload serve-crm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, result
# files and span traces all stay under .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/server || ! -f relperf/go.mod ]]; then
	echo "relperf: run from the repository root (go.mod, internal/server and relperf/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=unknown
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(cd relperf && go build -buildvcs=false -o "$out/bin/relperf" .)
exec "$out/bin/relperf" -commit "$commit" -out "$out/runs" "$@"
