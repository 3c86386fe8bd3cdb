#!/usr/bin/env sh
# bench.sh — run the experiment benchmarks (bench_test.go) and record
# the results as a JSON map {benchmark name -> {ns_per_op, allocs_per_op,
# bytes_per_op}} so successive PRs can diff performance numbers.
#
# Usage: scripts/bench.sh [output.json]
# Default output: BENCH.json in the repo root. Committed snapshots are
# named BENCH_<pr>.json.
#
# The -bench=. sweep includes the enforcement fast-path rows
# (E12_EnforcedQPS, E13_ConcurrentEnforcement) and the symbolic
# policy-analysis row (E14_SymbolicAnalysis — coverage and lint on a
# 100k-ground-value vocabulary). The reference oracles live in test
# code, so their rows run from their own packages:
# E12_ReferenceEnforcement (internal/hdb, compiled vs reference
# interpreter) and E14_CoverageOracle (internal/core, symbolic vs
# materializing coverage). check.sh smokes the same set at one
# iteration so the harness cannot rot.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "==> go test -bench=. -benchmem (this takes a few minutes)"
go test -bench=. -benchmem -benchtime=1s -count=1 -run=NONE . ./internal/hdb ./internal/core | tee "$tmp"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns != "") {
        rows[++n] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                            name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
    }
}
END {
    print "{"
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    print "}"
}
' "$tmp" > "$out"

echo "==> wrote $out"
