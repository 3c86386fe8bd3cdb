#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Run from the repository root; every argument is passed to the binary:
#
#   bash perfbench/run.sh --workload ward-shift --seed 1 --seconds 10 --trace 0
#
# The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
# The Go build cache, module cache and temporary files live under it,
# so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
