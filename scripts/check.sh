#!/bin/sh
# check.sh — the repo's tier-1 gate: build, vet, formatting, mmulint
# (the hygiene checks plus the whole-program proofs: determinism
# zones, model↔kernel transition parity, and phase-span balance), the
# full test suite under the race detector (which includes
# tools/hotpath: the hot path's allocation proof and inlining guards,
# read from the compiler's listing with and without the PGO profile),
# the mmu model gates (exhaustive exploration of the context-switch/MM
# state machine plus a kernel refinement pass), and the CLI exit-code gates
# (quick mmu report -all and an mmu chaos escalate soak, whose distinct
# exit codes — 3 cycle-budget, 4 panic, 5 audit — propagate as this
# script's own exit status). CI and `make check` both run exactly this
# script. The test suite includes the fault-injection and chaos-soak
# audits (internal/faultinject, internal/chaos, internal/kernel
# machine-check tests), so passing this gate also certifies the
# machine-check recovery identities.
set -eu

cd "$(dirname "$0")/.."

# The gates below run the mmu binary itself: `go run` reports every
# non-zero exit of the program as its own status 1, which would hide
# the exit-code classes.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mmu="$tmp/mmu"

echo '== go build ./...'
go build ./...
go build -o "$mmu" ./cmd/mmu

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== go run ./cmd/mmulint ./...'
go run ./cmd/mmulint ./...

echo '== go test -race ./...'
go test -race ./...

echo '== mmu model: exhaustive exploration (2 CPUs / 3 tasks / 2 mms)'
"$mmu" model -cpus 2 -tasks 3 -mms 2 -gens 2

echo '== mmu model: kernel refinement (seeded walks at N=1)'
"$mmu" model -refine -tasks 3 -mms 2 -gens 3 -walks 25 -steps 60

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
