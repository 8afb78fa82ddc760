#!/usr/bin/env bash
# Builds the benchmark harness and the schedserve binary from the checkout
# this is run in, then runs the harness with the given arguments:
#
#   bash bench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, temp dir and trace
# stays under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/schedserve" ./cmd/schedserve
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" -schedserve "$out/bin/schedserve" -dir "$out" "$@"
