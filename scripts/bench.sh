#!/usr/bin/env sh
# bench.sh — run the experiment benchmarks (bench_test.go) and record
# the results as a JSON map {benchmark name -> {metric -> value}} so
# successive PRs can diff performance numbers. ns/op, B/op and
# allocs/op are recorded as ns_per_op, bytes_per_op and allocs_per_op;
# every other value/unit pair a benchmark reports (b.ReportMetric:
# B/entry, fsyncs/op, entries/s, ...) is recorded under its unit.
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
# materializing coverage). LogRetainedBytes (internal/audit) reports
# the audit log's retained heap per entry. check.sh smokes the same set
# at one iteration so the harness cannot rot.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "==> go test -bench=. -benchmem (this takes a few minutes)"
go test -bench=. -benchmem -benchtime=1s -count=1 -run=NONE . ./internal/hdb ./internal/core ./internal/audit | tee "$tmp"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    # $2 is the iteration count; value/unit pairs follow.
    row = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        key = $(i+1)
        if (key == "ns/op")     key = "ns_per_op"
        if (key == "B/op")      key = "bytes_per_op"
        if (key == "allocs/op") key = "allocs_per_op"
        row = row (row == "" ? "" : ", ") sprintf("\"%s\": %s", key, $i)
    }
    if (row != "") {
        rows[++n] = sprintf("  \"%s\": {%s}", name, row)
    }
}
END {
    print "{"
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    print "}"
}
' "$tmp" > "$out"

echo "==> wrote $out"
