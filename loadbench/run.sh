#!/usr/bin/env bash
# Builds snapd and the load benchmark from the checkout in the working
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash loadbench/run.sh --workload point-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/snapd || ! -d loadbench ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/snapd and loadbench not found)" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build/loadbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOPATH="$out/home/go" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOENV=off

go build -o "$out/snapd" ./cmd/snapd >&2
(cd loadbench && go build -o "$out/loadbench" .) >&2
exec "$out/loadbench" -snapd "$out/snapd" -workdir "$out" "$@"
