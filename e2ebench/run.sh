#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload serve-dense --seed 1 --seconds 15 --trace 0
#   bash e2ebench/run.sh explain -spans .bench_build/results/spans.json .bench_build/results/summary.*.json
#
# Every build artefact, Go cache and scratch file stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go -C "$here" build -o "$build/e2ebench" .
exec "$build/e2ebench" -root "$root" "$@"
