#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash wallbench/run.sh --workload hd-4x4-paced --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, generated streams and traces all live under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C "$root/wallbench" build -o "$out/wallbench.bin" .
exec "$out/wallbench.bin" "$@"
