# The paper-reproduction simulator is pure Go; these targets wrap the
# toolchain invocations the project treats as canonical.

.PHONY: build mmu test lint check model bench benchsmoke pgo report

build:
	go build ./...

# mmu builds the command-line tool into bin/. The targets that check
# exit codes run the binary: `go run` reports every non-zero exit of
# the program as its own status 1.
mmu:
	go build -o bin/mmu ./cmd/mmu

test:
	go test ./...

# lint runs mmulint (tools/analyzers): the cyclecost, invariantcheck,
# and registry disciplines, plus the whole-program proofs — determinism
# of byte-identical-output packages, model↔kernel transition parity,
# and phase-span balance. check runs this too; lint alone is the fast
# iteration loop while annotating. The hot path's allocation proof is
# a test: go test ./tools/hotpath.
lint:
	go run ./cmd/mmulint ./...

# model runs the mmu model gates by hand: exhaustive exploration of
# the context-switch/MM state machine, the seeded kernel refinement,
# and the mutation gate (the planted mmumutant kernel bug must yield a
# counterexample, which exits 5, the audit-failure status; any other
# status fails the gate). check runs the first two; CI runs all three.
model: mmu
	bin/mmu model -cpus 2 -tasks 3 -mms 2 -gens 2
	bin/mmu model -refine -tasks 3 -mms 2 -gens 3 -walks 25 -steps 60
	go build -tags mmumutant -o bin/mmu-mutant ./cmd/mmu
	rc=0; bin/mmu-mutant model -refine -walks 25 -steps 60 || rc=$$?; test $$rc -eq 5

# check is the tier-1 gate: build, vet, gofmt, mmulint, and the
# race-enabled test suite. Run it before sending changes.
check:
	sh scripts/check.sh

# bench regenerates BENCH_harness.json (sequential vs parallel harness
# timing, per-experiment sim cycles and counter checksums; see
# README.md). Regenerate it whenever simulated counters intentionally
# change — benchsmoke holds future runs to its checksums. It and pgo
# run mmureport, `mmu report` under its own name, whose package holds
# the PGO profile that `go build` applies.
bench: build
	go run ./cmd/mmureport -benchjson BENCH_harness.json

# benchsmoke verifies the committed bench baseline still reproduces:
# per-experiment counter checksums, -j determinism, and a fresh,
# buildable PGO profile. CI runs this; wall times are NOT compared.
benchsmoke:
	sh scripts/bench_smoke.sh

# pgo regenerates cmd/mmureport/default.pgo — the profile `go build`
# applies automatically when compiling the harness — from two merged
# quick-scale -all runs. Regenerate after changing hot simulation code.
pgo: build
	go build -o /tmp/mmureport_pgogen ./cmd/mmureport
	/tmp/mmureport_pgogen -all -j 1 -cpuprofile /tmp/mmureport_pgo1.pprof > /dev/null
	/tmp/mmureport_pgogen -all -j 1 -cpuprofile /tmp/mmureport_pgo2.pprof > /dev/null
	go tool pprof -proto /tmp/mmureport_pgo1.pprof /tmp/mmureport_pgo2.pprof > cmd/mmureport/default.pgo
	rm -f /tmp/mmureport_pgogen /tmp/mmureport_pgo1.pprof /tmp/mmureport_pgo2.pprof

report: mmu
	bin/mmu report -all
