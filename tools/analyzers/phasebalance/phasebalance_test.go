package phasebalance_test

import (
	"testing"

	"mmutricks/tools/analyzers/analysistest"
	"mmutricks/tools/analyzers/phasebalance"
)

func TestPhaseBalance(t *testing.T) {
	analysistest.Run(t, "testdata", phasebalance.Analyzer,
		"kernel", "mmutricks/internal/telemetry", "mmutricks/internal/mmtrace")
}
