#!/bin/sh
# run.sh — build and run the simulator benchmark (bench/README.md).
#
#   sh bench/run.sh [-seed N] [-seconds S] [-o out.jsonl]   every workload, untraced then traced
#   sh bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   sh bench/run.sh compare parent.jsonl change.jsonl
#   sh bench/run.sh golden > bench/mmubench/golden.json
#
# It builds mmureport exactly as users do (go build applies
# cmd/mmureport/default.pgo) and mmubench with the same profile, into
# .bench_build/, and keeps the Go build cache and temporary files there
# too. Build output goes to stderr, so the last line on stdout is the
# benchmark's result.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
if [ ! -f go.mod ] || [ ! -f cmd/mmureport/default.pgo ]; then
	echo "run.sh: $root holds no simulator source to benchmark" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# build directory as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/mmureport" ./cmd/mmureport >&2
(cd bench && go build -pgo=../cmd/mmureport/default.pgo -o "$build/bin/mmubench" ./mmubench) >&2

commit=$(git rev-parse --short HEAD 2>/dev/null) || commit=unknown
bench="$build/bin/mmubench"
case "${1-}" in
--workload | -workload) exec "$bench" run -commit "$commit" "$@" ;;
compare | golden) exec "$bench" "$@" ;;
*) exec "$bench" all -commit "$commit" "$@" ;;
esac
