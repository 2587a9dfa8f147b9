#!/usr/bin/env bash
# Entry point of the repo benchmark (BENCHMARK.json's command). Builds the
# benchmark and the server it drives from source into .bench_build/ at the
# root of the checkout, then runs the benchmark with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Everything the toolchain writes stays inside the checkout.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$here"
go build -o "$out/bin/qsense-benchmark" .
go build -o "$out/bin/qsense-kvd" qsense/cmd/qsense-kvd
cd ..
exec "$out/bin/qsense-benchmark" -kvd "$out/bin/qsense-kvd" "$@"
