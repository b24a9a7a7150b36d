# The paper-reproduction simulator is pure Go; these targets wrap the
# toolchain invocations the project treats as canonical.

.PHONY: build mmu test check bench benchsmoke pgo report

build:
	go build ./...

# mmu builds the command-line tool into bin/. The targets that check
# exit codes run the binary: `go run` reports every non-zero exit of
# the program as its own status 1.
mmu:
	go build -o bin/mmu ./cmd/mmu

# test is the tier-1 gate: with the unit and shape tests it runs the
# analyzers, gofmt, the model gates and the counter checksums.
test:
	go test ./...

# check runs vet, the race-enabled test suite and the CLI exit-code
# gates. Run it and test before sending changes.
check:
	sh scripts/check.sh

# bench regenerates BENCH_harness.json (sequential vs parallel harness
# timing, per-experiment sim cycles and counter checksums; see
# README.md). Regenerate it whenever simulated counters intentionally
# change — go test holds future runs to its checksums. It and pgo
# run mmureport, `mmu report` under its own name, whose package holds
# the PGO profile that `go build` applies.
bench: build
	go run ./cmd/mmureport -benchjson BENCH_harness.json

# benchsmoke checks that the committed PGO profile is fresh and
# builds. CI runs this.
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
