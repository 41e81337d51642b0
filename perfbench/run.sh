#!/usr/bin/env bash
# Builds cmd/ontoserve and the perfbench load generator from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches, binaries, corpora, data
# directories and server logs all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp" "$out/work" "$out/config"
# Keep every file the go command writes (build cache, temporary files,
# telemetry counters) inside the checkout, and never reach the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/ontoserve" ./cmd/ontoserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/ontoserve" -work "$out/work" -manifest "$root/BENCHMARK.json" "$@"
