#!/usr/bin/env bash
# Builds bench/ppnbench from the checkout in the current directory and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper_small --seed 1 --seconds 15 --trace 0
#
# Every build product, including the Go build cache, stays under
# .bench_build/ in the current directory, and the go command is kept off
# the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/ppnbench" ./ppnbench
exec "$out/ppnbench" "$@"
