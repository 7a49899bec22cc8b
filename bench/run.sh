#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run
# from and runs it with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload storage-read --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare .bench_build/runs/A .bench_build/runs/B
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the benchmark binary, and the traced run's
# span and CPU-profile files.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -trimpath -o "$out/bench" .)
exec "$out/bench" "$@"
