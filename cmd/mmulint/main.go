// mmulint is the repo's static-analysis gate. It runs the structural
// hygiene checks — cycle-accounting completeness (cyclecost),
// consistency checking in state-mutating tests and experiments
// (invariantcheck), experiment-registration hygiene (registry) — and
// the whole-program proofs: determinism of the packages that promise
// byte-identical output (determinism), model↔kernel transition parity
// (transitions), and telemetry phase-span balance (phasebalance). The
// registry lives in tools/analyzers/suite: -list shows every pass and
// -run selects some of them. The hot path's allocation proof reads the
// compiler's listing instead and runs as a test (tools/hotpath).
//
// Usage:
//
//	go run ./cmd/mmulint [-tests=false] [-run name,name] [-list] ./...
//
// Diagnostics print vet-style (file:line:col: analyzer: message) and a
// non-empty report exits 1; load/type errors exit 2.
package main

import "mmutricks/tools/analyzers/suite"

func main() {
	suite.Main()
}
