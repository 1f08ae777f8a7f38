#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload eval-arrays --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the Go tool's own config and
# telemetry live in .bench_build/ at the root, so the build reads and
# writes nothing outside the checkout and fetches nothing.  Without the
# repository's sources next to bench/ the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
