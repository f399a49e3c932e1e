#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# Every build artifact and Go cache lives under .bench_build in the
# checkout root; nothing is fetched (stdlib only, GOPROXY=off).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off
if [[ "${1:-}" == compare ]]; then
	shift
	go -C perfbench build -o "$build/perfbench-compare" ./compare
	exec "$build/perfbench-compare" "$@"
fi
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
