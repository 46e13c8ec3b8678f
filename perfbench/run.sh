#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload transfer --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build in the current directory, so nothing is written outside
# it. Without the repository's Go module next to perfbench/ the build
# fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
