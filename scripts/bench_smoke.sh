#!/bin/sh
# bench_smoke.sh — the PGO profile smoke. The benchmark (bench/run.sh)
# builds cmd/mmureport, and `go build` applies the profile checked in
# there, so this gate checks that:
#
#   1. the checked-in PGO profile (cmd/mmureport/default.pgo) parses,
#      and still profiles the batched cache path — a rename or removal
#      of the hot entry points makes the profile stale, and a stale
#      profile silently builds an unoptimized harness;
#   2. the harness builds with the profile applied explicitly.
#
# The per-experiment counter checksums in BENCH_harness.json are held
# by internal/report's TestRunAllDeterministicAcrossParallelism under
# plain `go test ./...`.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo '== pgo profile freshness'
go tool pprof -top -nodecount=60 cmd/mmureport/default.pgo > "$tmp/pgo.top"
for sym in \
	'cache.(\*Cache).AccessRunCount' \
	'kernel.(\*Kernel).AccessRun' \
	'machine.(\*Machine).MemAccessRun'; do
	if ! grep -q "$sym" "$tmp/pgo.top"; then
		echo "bench_smoke: default.pgo has no samples for $sym — the profile is stale; regenerate it with 'make pgo'" >&2
		exit 1
	fi
done

echo '== build with the profile applied'
go build -pgo=cmd/mmureport/default.pgo -o "$tmp/mmureport" ./cmd/mmureport

echo 'bench_smoke: profile fresh, pgo build ok'
