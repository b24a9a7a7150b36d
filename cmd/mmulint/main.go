// mmulint is the repo's static-analysis gate. Its default set holds
// the structural hygiene checks — cycle-accounting completeness
// (cyclecost), consistency checking in state-mutating tests and
// experiments (invariantcheck), experiment-registration hygiene
// (registry) — and the whole-program proofs: transitive
// //mmutricks:noalloc over the call graph (noalloctrans), determinism
// of the packages that promise byte-identical output (determinism),
// model↔kernel transition parity (transitions), and telemetry
// phase-span balance (phasebalance). The registry lives in
// tools/analyzers/suite: -list shows every registered pass and -run
// selects any of them.
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
