#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's flags.
# Everything the build and the run write — Go build cache, the go
# command's telemetry counters (it keeps them under the user config
# directory), temp and spill files, the binary — stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/mocha-benchmark" .) >&2
cd "$root"
exec "$build/mocha-benchmark" "$@"
