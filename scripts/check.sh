#!/bin/sh
# check.sh — the repo's tier-1 gate: build, vet, formatting, mmulint
# (the hygiene checks plus the whole-program proofs: transitive
# noalloc, determinism zones, model↔kernel transition parity, and
# phase-span balance), the inlining guards (cache paths, mmtrace
# event and phase calls), the full test suite under the race detector, the
# mmu model gates (exhaustive exploration of the context-switch/MM state
# machine plus a kernel refinement pass), and the CLI exit-code gates
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

# The 4-way cache paths do their probe and fill through two small
# helpers that must inline, and every 4-way run goes through two run
# kernels that must not: hitRun advances a run while it hits and
# fillRun while it misses, each keeping its loop state in registers. A
# helper grown past the inliner's budget turns every simulated
# reference into a call, and a kernel inlined into a caller brings the
# caller's values into the loop and spills its state to the stack;
# either gives back most of the run path's speed with no test failing.
# probe4 and fill4 must inline into Access (which also serves a run
# that stays on one line) and fillRun, and hitRun's own hit update,
# hit4, into hitRun; both kernels must be marked go:noinline and never
# be inlined. The guard runs twice: without PGO, so that it holds for
# every build, and with the checked-in profile, the build that users
# and the benchmark run.
for pgo in off cmd/mmureport/default.pgo; do
	echo "== inlining: the 4-way cache helpers and run kernels (-pgo=$pgo)"
	go build -pgo="$pgo" -gcflags=-m=2 ./internal/cache 2>&1 | awk -v pgo="$pgo" '
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
		/^internal\/cache\/cache\.go:[0-9]+:[0-9]+: inlining call to (probe4|fill4|hit4)$/ {
			split($0, pos, ":")
			f = ""
			for (i = 1; i <= nf && start[i] <= pos[2] + 0; i++)
				f = fname[i]
			inlined[f " " $NF] = 1
		}
		/: inlining call to (hitRun|fillRun)$/ {
			printf "check: the run kernel %s is inlined at %s (-pgo=%s)\n", $NF, $1, pgo > "/dev/stderr"
			bad = 1
		}
		/: cannot inline (hitRun|fillRun): marked go:noinline$/ {
			k = $4
			sub(/:$/, "", k)
			kernel[k] = 1
		}
		END {
			n = split("Access:probe4 Access:fill4 hitRun:hit4 fillRun:probe4 fillRun:fill4", want, " ")
			for (i = 1; i <= n; i++) {
				split(want[i], fh, ":")
				if (!((fh[1] " " fh[2]) in inlined)) {
					printf "check: %s is no longer inlined into %s (-pgo=%s)\n", fh[2], fh[1], pgo > "/dev/stderr"
					bad = 1
				}
			}
			split("hitRun fillRun", ks, " ")
			for (i = 1; i <= 2; i++)
				if (!(ks[i] in kernel)) {
					printf "check: the run kernel %s is missing or not marked go:noinline (-pgo=%s)\n", ks[i], pgo > "/dev/stderr"
					bad = 1
				}
			exit bad
		}' internal/cache/cache.go -
done

# The simulator counts, traces and attributes its work through the
# tracer's typed calls (internal/mmtrace): the event calls
# (TLBMiss, MajorFault, ...), the phase calls (Phases, Enter, Exit,
# SetTask, and the entering calls Syscall, IdleWait, IdleScan and
# KthreadMMSwitch), and the span-ending event calls (CtxSwitch,
# SwapOut, SwapIn, COWBreak). They run whether or not tracing is on,
# and each must inline: a call grown past the inliner's budget (a
# second counter bump, a shared helper), or a package that stops
# importing mmtrace itself, puts a function call on every TLB miss,
# fault, flush and syscall, with no test failing. Every trc.<Call>(
# site in ppc (the (*MMU).Translate miss path), kernel and machine must
# be reported inlined — each call on its own, so both calls of
# `defer k.M.Trc.Exit(k.M.Trc.Enter(ph))` count — and there must be
# such sites in mmu.go. Sites are keyed by file, line and the column of
# the call's parenthesis, which is where the compiler reports it.
echo '== inlining: every mmtrace call in ppc, kernel and machine'
src=$(ls internal/ppc/*.go internal/kernel/*.go internal/machine/*.go | grep -v '_test\.go$')
go build -pgo=off -gcflags=-m ./internal/ppc ./internal/kernel ./internal/machine 2>&1 | LC_ALL=C awk '
	FILENAME != "-" {
		if ($0 ~ /^[ \t]*\/\//)
			next
		rest = $0
		col = 0
		while (match(rest, /[Tt]rc\.[A-Z][A-Za-z]*\(/)) {
			col += RSTART + RLENGTH - 1
			want[FILENAME ":" FNR ":" col] = 1
			if (FILENAME == "internal/ppc/mmu.go")
				nmmu++
			rest = substr(rest, RSTART + RLENGTH)
		}
		next
	}
	/: inlining call to mmtrace\.\(\*Tracer\)\.[A-Za-z]+$/ {
		split($0, pos, ":")
		inlined[pos[1] ":" pos[2] ":" pos[3]] = 1
	}
	END {
		bad = 0
		if (nmmu == 0) {
			print "check: found no trc calls in internal/ppc/mmu.go" > "/dev/stderr"
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
