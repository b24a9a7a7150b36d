#!/bin/sh
# check.sh — the repo's tier-1 gate: build, vet, formatting, mmulint
# (the hygiene checks plus the whole-program proofs: transitive
# noalloc, determinism zones, model↔kernel transition parity, and
# phase-span balance), the inlining guards (cache paths, mmtrace
# event calls), the full test suite under the race detector, the
# mmumodel gates (exhaustive exploration of the context-switch/MM state machine
# plus a kernel refinement pass), and the CLI exit-code gates (quick
# mmureport -all and an mmuchaos escalate soak, whose distinct exit
# codes — 3 cycle-budget, 4 panic, 5 audit — propagate as this
# script's own exit status instead of collapsing to 1). CI and `make
# check` both run exactly this script. The test suite includes the
# fault-injection and chaos-soak audits (internal/faultinject,
# internal/chaos, internal/kernel machine-check tests), so passing this
# gate also certifies the machine-check recovery identities.
set -eu

cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

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

# The 4-way cache paths do their probe and fill through two small
# helpers that must inline: a helper grown past the inliner's budget
# turns every simulated reference into a call and gives back most of
# the inlined miss path's speed, with no test failing. The build is
# without PGO, so the guard holds for every build.
echo '== inlining: probe4 and fill4 in every 4-way cache path'
go build -pgo=off -gcflags=-m ./internal/cache 2>&1 | awk '
	FNR == NR {
		if ($0 ~ /^func /) {
			name = $0
			sub(/^func (\([^)]*\) )?/, "", name)
			sub(/[[(].*/, "", name)
			nf++
			start[nf] = FNR
			fname[nf] = name
		}
		next
	}
	/^internal\/cache\/cache\.go:[0-9]+:[0-9]+: inlining call to (probe4|fill4)$/ {
		split($0, pos, ":")
		f = ""
		for (i = 1; i <= nf && start[i] <= pos[2] + 0; i++)
			f = fname[i]
		inlined[f " " $NF] = 1
	}
	END {
		bad = 0
		n = split("Access accessGroups mixedRun", fns, " ")
		for (i = 1; i <= n; i++)
			for (h = 0; h < 2; h++) {
				helper = h ? "fill4" : "probe4"
				if (!((fns[i] " " helper) in inlined)) {
					printf "check: %s is no longer inlined into (*Cache).%s\n", helper, fns[i] > "/dev/stderr"
					bad = 1
				}
			}
		exit bad
	}' internal/cache/cache.go -

# The simulator counts and traces its events through the tracer's
# typed calls (internal/mmtrace/events.go), which run whether or not
# tracing is on. Each must inline: a call grown past the inliner's
# budget (a second counter bump, a shared helper), or a package that
# stops importing mmtrace itself, puts a function call on every TLB
# miss, fault and flush, with no test failing. Every trc.<Call>( site
# in ppc (the (*MMU).Translate miss path), kernel and machine must be
# reported inlined, and there must be such sites in mmu.go.
echo '== inlining: every mmtrace event call in ppc, kernel and machine'
src=$(ls internal/ppc/*.go internal/kernel/*.go internal/machine/*.go | grep -v '_test\.go$')
go build -pgo=off -gcflags=-m ./internal/ppc ./internal/kernel ./internal/machine 2>&1 | awk '
	FILENAME != "-" {
		if ($0 !~ /^[ \t]*\/\// && $0 ~ /[Tt]rc\.[A-Z][A-Za-z]*\(/) {
			want[FILENAME ":" FNR] = 1
			if (FILENAME == "internal/ppc/mmu.go")
				nmmu++
		}
		next
	}
	/: inlining call to mmtrace\.\(\*Tracer\)\.[A-Za-z]+$/ {
		split($0, pos, ":")
		inlined[pos[1] ":" pos[2]] = 1
	}
	END {
		bad = 0
		if (nmmu == 0) {
			print "check: found no trc event calls in internal/ppc/mmu.go" > "/dev/stderr"
			bad = 1
		}
		for (k in want)
			if (!(k in inlined)) {
				printf "check: the mmtrace call at %s is no longer inlined\n", k > "/dev/stderr"
				bad = 1
			}
		exit bad
	}' $src -

echo '== go test -race ./...'
go test -race ./...

echo '== mmumodel: exhaustive exploration (2 CPUs / 3 tasks / 2 mms)'
go run ./cmd/mmumodel -cpus 2 -tasks 3 -mms 2 -gens 2

echo '== mmumodel: kernel refinement (seeded walks at N=1)'
go run ./cmd/mmumodel -refine -tasks 3 -mms 2 -gens 3 -walks 25 -steps 60

# The CLI exit-code contract (internal/exitcode): a degraded registry
# run or a failed chaos audit must surface as its own code — 3 for
# cycle-budget, 4 for panic, 5 for audit failure — and this gate
# propagates that code instead of collapsing every failure to 1, so
# the caller (CI, a bisect script) can tell a hung experiment from a
# crashed one without parsing logs.
echo '== mmureport -all exit-code contract (quick registry)'
rc=0
go run ./cmd/mmureport -all -quick >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "check: mmureport -all exited $rc (3=cycle-budget, 4=panic, 1=other)" >&2
	exit "$rc"
fi

echo '== mmuchaos exit-code contract (escalate soak)'
rc=0
go run ./cmd/mmuchaos -workload escalate -iters 60 \
	-schedule 'seed=7 rate=20000ppm burst=1 mix=pte-flip:4,tlb-flip:1' >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "check: mmuchaos exited $rc (5=audit failure, 1=harness error)" >&2
	exit "$rc"
fi

echo 'check: all gates passed'
