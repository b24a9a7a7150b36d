//go:build mmumutant

package model

import (
	"strings"
	"testing"
)

// TestRefineCatchesKernelMutant is the mutation gate's teeth, run
// only under the mmumutant build tag: the kernel build skips the
// final mmput in UnuseMM (internal/kernel/mm_mutant.go), and the
// faithful shadow model must catch it and minimize the divergence to
// the adopt/release pair. The untagged TestMutantGate runs this under
// the tag and requires it to pass. If this test ever passes on a
// faithful build (it is tag-gated so it cannot run there by accident),
// or fails to find the planted bug, the refinement harness has lost
// its teeth.
func TestRefineCatchesKernelMutant(t *testing.T) {
	p := Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 3}
	res, err := Refine(p, RefineOpts{Walks: 30, Steps: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("mutant kernel not detected in %d steps", res.StepsExecuted)
	}
	got := make([]string, len(res.Violation.Trace))
	for i, st := range res.Violation.Trace {
		got[i] = st.String()
	}
	if len(got) != 3 || !strings.HasPrefix(got[1], "use_mm") || !strings.HasPrefix(got[2], "unuse_mm") {
		t.Errorf("minimized trace not the 3-step essence: %q", got)
	}
}
