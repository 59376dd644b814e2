#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs one
# workload.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, span dumps) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
