#!/usr/bin/env sh
# check.sh — the full CI gate, runnable locally.
#
# Order matters: cheap structural checks first, the custom static
# analysis before the test suite (a lock-discipline violation should
# fail the build even while its race is still too rare for -race to
# catch), and the race detector last because it is the slowest.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt"
fmtout=$(gofmt -l . 2>/dev/null)
if [ -n "$fmtout" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmtout" >&2
    exit 1
fi

echo "==> prima-vet -sarif ./... (custom static analysis, every analyzer, all three layers)"
# One pass both writes the SARIF report (kept as a CI artifact) and
# gates the build. The report is complete before the exit status is
# checked, so it holds exactly the findings that fail the gate:
# exit 1 means findings, >= 2 a load or usage error.
vet_status=0
go run ./cmd/prima-vet -sarif ./... > prima-vet.sarif || vet_status=$?
if [ "$vet_status" -ne 0 ]; then
    echo "prima-vet failed (exit $vet_status); findings are in prima-vet.sarif" >&2
    exit "$vet_status"
fi

echo "==> lockorder.txt sync check (-write-lockorder must be a no-op)"
# Regenerate in a temporary copy of the working tree (tracked and
# untracked files, edits included), so the check compares against the
# file as it is, unstaged edits too, and never rewrites it.
lo_tmp=$(mktemp -d)
trap 'rm -rf "$lo_tmp"' EXIT
git ls-files --cached --others --exclude-standard | while IFS= read -r f; do
    if [ -f "$f" ]; then printf '%s\n' "$f"; fi
done | tar -cf - -T - | tar -xf - -C "$lo_tmp"
(cd "$lo_tmp" && go run ./cmd/prima-vet -write-lockorder)
if ! diff -u cmd/prima-vet/lockorder.txt "$lo_tmp/cmd/prima-vet/lockorder.txt" >&2; then
    echo "cmd/prima-vet/lockorder.txt is out of sync with the observed acquisition graph (diff above: -file, +regenerated); the file was not changed" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

echo "==> perfbench module: go vet ./... && go test ./... (its own module, so the root ./... never compiles it)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> coverage gate (cmd/prima-vet >= 70%, profiles kept as artifacts)"
go test -coverprofile=coverage-prima-vet.out ./cmd/prima-vet > /dev/null
go test -coverprofile=coverage-policy.out ./internal/policy > /dev/null
go tool cover -func=coverage-prima-vet.out | awk '
    /^total:/ {
        sub(/%/, "", $3)
        printf "prima-vet statement coverage: %s%%\n", $3
        if ($3 + 0 < 70) { print "coverage below the 70% floor" > "/dev/stderr"; exit 1 }
    }'

echo "==> fuzz smoke (~100s: decoders, the durable record codec, WAL replay, the CRC frame, the wire entry codec and the SQL parser must not panic, the parser must keep its nesting bound, symbolic algebra and FP-growth must match their ground oracles, and the enforcer must match its reference interpreter)"
go test -fuzz=FuzzDecodePolicy -fuzztime=10s -run=NONE ./internal/policy > /dev/null
go test -fuzz=FuzzDecodeEntry -fuzztime=10s -run=NONE ./internal/audit > /dev/null
go test -fuzz=FuzzDurableRecord -fuzztime=10s -run=NONE ./internal/audit > /dev/null
go test -fuzz=FuzzSymbolicVsMaterialized -fuzztime=10s -run=NONE ./internal/policy > /dev/null
go test -fuzz=FuzzFPGrowthVsApriori -fuzztime=10s -run=NONE ./internal/mining > /dev/null
go test -fuzz=FuzzWALReplay -fuzztime=10s -run=NONE ./internal/storage > /dev/null
go test -fuzz=FuzzFrameDecode -fuzztime=10s -run=NONE ./internal/storage > /dev/null
go test -fuzz=FuzzEntryCodec -fuzztime=10s -run=NONE ./internal/netfed > /dev/null
go test -fuzz=FuzzParse -fuzztime=10s -run=NONE ./internal/minidb > /dev/null
go test -fuzz=FuzzEnforcedQuery -fuzztime=10s -run=NONE ./internal/hdb > /dev/null

echo "==> go test -race (concurrency suites: root facade, audit, consent, core, hdb, lint, minidb, mining, netfed, policy, storage, vocab, workflow, server)"
go test -race . ./internal/audit/ ./internal/consent/ ./internal/core/ ./internal/hdb/ ./internal/lint/ ./internal/minidb/ ./internal/mining/ ./internal/netfed/ ./internal/policy/ ./internal/storage/ ./internal/vocab/ ./internal/workflow/ ./internal/server/

echo "==> benchmark smoke (one iteration per benchmark, including the reference-oracle rows in hdb and core, the retained-bytes, merge and consolidation rows in audit and the indexed chart lookup in minidb, and E15's transaction-level engine rows in mining; -short shrinks the E16 recovery corpus)"
go test -short -bench=. -benchtime=1x -run=NONE . ./internal/hdb ./internal/core ./internal/audit ./internal/minidb ./internal/mining > /dev/null

echo "All checks passed."
