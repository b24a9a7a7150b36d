// Package suite is the single registry of the repo's analyzers. Adding
// an analyzer is a one-line registration in Analyzers; TestLint runs
// every registered analyzer over the whole module under go test.
//
// Analyzers holds the structural hygiene checks — cycle-accounting
// completeness, invariant checking in state-mutating tests,
// experiment-registration hygiene — and the whole-program proofs:
// determinism of byte-identical output packages, model↔kernel
// transition parity, and telemetry phase-span balance.
package suite

import (
	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/cyclecost"
	"mmutricks/tools/analyzers/determinism"
	"mmutricks/tools/analyzers/invariantcheck"
	"mmutricks/tools/analyzers/phasebalance"
	"mmutricks/tools/analyzers/registry"
	"mmutricks/tools/analyzers/transitions"
)

// Analyzers is every analyzer TestLint runs.
var Analyzers = []*analysis.Analyzer{
	cyclecost.Analyzer,
	invariantcheck.Analyzer,
	registry.Analyzer,
	determinism.Analyzer,
	transitions.Analyzer,
	phasebalance.Analyzer,
}
