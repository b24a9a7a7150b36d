#!/bin/sh
# check.sh — vet, the full test suite under the race detector, and the
# CLI exit-code gates (quick mmu report -all and an mmu chaos escalate
# soak, whose distinct exit codes — 3 cycle-budget, 4 panic, 5 audit —
# propagate as this script's own exit status). CI and `make check` both
# run exactly this script.
#
# Every other gate is a test that plain `go test ./...` runs: the
# analyzers and the gofmt check (tools/analyzers/suite), the hot path's
# allocation proof (tools/hotpath), the model exploration, refinement
# and mutation gate (internal/model), and the counter checksums against
# BENCH_harness.json (internal/report). The race run covers them all
# but the checksums, whose full-registry test skips under the race
# detector; CI runs plain `go test ./...` as its own step.
set -eu

cd "$(dirname "$0")/.."

# The gates below run the mmu binary itself: `go run` reports every
# non-zero exit of the program as its own status 1, which would hide
# the exit-code classes.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mmu="$tmp/mmu"
go build -o "$mmu" ./cmd/mmu

echo '== go vet ./...'
go vet ./...

echo '== go test -race ./...'
go test -race ./...

# The CLI exit-code contract (internal/exitcode): a degraded registry
# run or a failed chaos audit must surface as its own code — 3 for
# cycle-budget, 4 for panic, 5 for audit failure — and this gate
# exits with that code, so the caller (CI, a bisect script) can tell a
# hung experiment from a crashed one without parsing logs.
echo '== mmu report -all exit-code contract (quick registry)'
rc=0
"$mmu" report -all -quick >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "check: mmu report -all exited $rc (3=cycle-budget, 4=panic, 1=other)" >&2
	exit "$rc"
fi

echo '== mmu chaos exit-code contract (escalate soak)'
rc=0
"$mmu" chaos -workload escalate -iters 60 \
	-schedule 'seed=7 rate=20000ppm burst=1 mix=pte-flip:4,tlb-flip:1' >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "check: mmu chaos exited $rc (5=audit failure, 2=bad options, 1=harness error)" >&2
	exit "$rc"
fi

echo 'check: all gates passed'
