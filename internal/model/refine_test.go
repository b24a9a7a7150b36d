//go:build !mmumutant

package model

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefineClean replays seeded random walks against the real
// (faithful) kernel and requires zero divergence: every model step
// maps to a kernel call whose observable mm state matches the model's
// prediction exactly, and the kernel's CheckConsistency holds after
// every step, over two spaces: two tasks, and three tasks walked from
// `mmu model -refine`'s default seed.
func TestRefineClean(t *testing.T) {
	for _, c := range []struct {
		p    Params
		opts RefineOpts
	}{
		{Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 3}, RefineOpts{Walks: 30, Steps: 80, Seed: 0xc0ffee}},
		{Params{CPUs: 1, Tasks: 3, MMs: 2, Gens: 3}, RefineOpts{Walks: 25, Steps: 60, Seed: 1}},
	} {
		res, err := Refine(c.p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("%+v: model and kernel diverge:\n%s", c.p, res.Violation.Script(c.p))
		}
		if res.StepsExecuted == 0 {
			t.Fatalf("%+v: refinement executed no steps", c.p)
		}
	}
}

// TestMutantGate builds the kernel with the planted mmumutant bug and
// requires TestRefineCatchesKernelMutant to pass there: the refinement
// must find the bug. A seam turned into a no-op, or a refinement that
// goes blind, fails this test; -v output proves the tagged test ran
// rather than matching nothing.
//
// The go command caches a test's result by its binary and the files it
// opens. The tagged files are not in this binary, so the test reads
// every source file under internal/: a change to any of them reruns it.
func TestMutantGate(t *testing.T) {
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "test", "-tags", "mmumutant", "-run", "^TestRefineCatchesKernelMutant$", "-v", ".").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestRefineCatchesKernelMutant") {
		t.Fatalf("the refinement did not catch the mmumutant kernel (err %v):\n%s", err, out)
	}
}

// TestRefineDetectsShadowMutant plants the unuse_mm bug in the shadow
// model (kernel faithful) and requires the divergence to be found and
// minimized to its essence. This exercises the same detect-and-
// minimize machinery TestMutantGate relies on, without needing
// the -tags mmumutant kernel build.
func TestRefineDetectsShadowMutant(t *testing.T) {
	p := Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 3}
	res, err := Refine(p, RefineOpts{Walks: 30, Steps: 80, Seed: 0xc0ffee, Mutant: MutantSkipUnusePut})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("shadow mutant not detected in %d steps", res.StepsExecuted)
	}
	got := make([]string, len(res.Violation.Trace))
	for i, st := range res.Violation.Trace {
		got[i] = st.String()
	}
	// Minimized: spawn one task, adopt its space, let go. The buggy
	// shadow keeps the user reference the real kernel drops.
	if len(got) != 3 || !strings.HasPrefix(got[1], "use_mm") || !strings.HasPrefix(got[2], "unuse_mm") {
		t.Errorf("minimized trace not the 3-step essence: %q", got)
	}
	if !strings.Contains(res.Violation.Err, "model users=") {
		t.Errorf("divergence %q does not name the refcount mismatch", res.Violation.Err)
	}
}

// TestRefineSeedDeterminism: the same seed must replay the same walks
// byte for byte — recorded counterexample seeds stay reproducible.
func TestRefineSeedDeterminism(t *testing.T) {
	p := Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 3}
	opts := RefineOpts{Walks: 10, Steps: 40, Seed: 7, Mutant: MutantSkipUnusePut}
	a, err := Refine(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Refine(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepsExecuted != b.StepsExecuted {
		t.Errorf("steps executed differ across identical runs: %d vs %d", a.StepsExecuted, b.StepsExecuted)
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatal("violation presence differs across identical runs")
	}
	if a.Violation != nil && a.Violation.Script(p) != b.Violation.Script(p) {
		t.Errorf("counterexample scripts differ across identical runs:\n%s\nvs\n%s",
			a.Violation.Script(p), b.Violation.Script(p))
	}
}

// TestRefineRejectsSMP: the kernel simulates one CPU, so refinement
// is defined only at cpus=1.
func TestRefineRejectsSMP(t *testing.T) {
	if _, err := Refine(Params{CPUs: 2, Tasks: 2, MMs: 2, Gens: 2}, RefineOpts{Walks: 1, Steps: 1}); err == nil {
		t.Fatal("cpus=2 refinement accepted")
	}
}
