#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root:
#
#   bash perfbench/run.sh --workload fleet-arq --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, the toolchain's
# config and telemetry directory) stays under .bench_build/ in the
# checkout, and the toolchain never reaches for the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
