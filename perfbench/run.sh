#!/usr/bin/env bash
# Builds the benchmark and the dpgrid/dpserve binaries it drives from
# this checkout's source, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload node-point --seed 1 --seconds 10 --trace 0
#
# Every build product and cache stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
(cd "$root" && go build -o "$out/bin/" ./cmd/dpgrid ./cmd/dpserve)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
