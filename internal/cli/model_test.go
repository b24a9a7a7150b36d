package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"mmutricks/internal/exitcode"
)

var update = flag.Bool("update", false, "rewrite the golden counterexample")

// TestCounterexampleGolden pins the exact bytes of a minimized
// counterexample script: exploring with the planted skip-unuse-put
// bug at the default 1/2/2/2 parameters. BFS order, the canonical
// step enumeration, and the script grammar are all load-bearing for
// reproducing recorded counterexamples, so any drift must be a
// conscious `go test ./internal/cli -run Golden -update` away, not an
// accident.
func TestCounterexampleGolden(t *testing.T) {
	code, stdout, stderr := mmu("model", "-mutate", "skip-unuse-put", "-j", "3")
	if code != exitcode.AuditFailure {
		t.Fatalf("exit %d, want %d (violation); stderr: %s", code, exitcode.AuditFailure, stderr)
	}
	golden := filepath.Join("testdata", "counterexample.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("counterexample drifted from golden:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

// TestGoldenAtAnyWorkerCount re-runs the golden scenario at several
// -j values: the bytes must not depend on parallelism.
func TestGoldenAtAnyWorkerCount(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "counterexample.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 2, runtime.NumCPU()} {
		code, stdout, stderr := mmu("model", "-mutate", "skip-unuse-put", "-j", strconv.Itoa(j))
		if code != exitcode.AuditFailure {
			t.Fatalf("-j %d: exit %d; stderr: %s", j, code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("-j %d: output differs from golden", j)
		}
	}
}

// TestCleanExploreExitsZero: the CI smoke contract — a clean
// exhaustive run exits 0 and the JSON summary carries the counts and
// no counterexample key.
func TestCleanExploreExitsZero(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "model.json")
	if code, stdout, stderr := mmu("model", "-cpus", "2", "-tasks", "3", "-mms", "2", "-o", tmp); code != exitcode.OK {
		t.Fatalf("exit %d; stderr: %s; stdout: %s", code, stderr, stdout)
	}
	blob, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got["mode"] != "explore" || got["states"].(float64) == 0 {
		t.Errorf("summary missing exploration counts: %s", blob)
	}
	if _, has := got["counterexample"]; has {
		t.Errorf("clean run wrote a counterexample: %s", blob)
	}
}

// TestMutantJSONHasCounterexample: the converse contract — the
// mutation gate greps the JSON for "counterexample".
func TestMutantJSONHasCounterexample(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "model.json")
	if code, _, _ := mmu("model", "-mutate", "skip-unuse-put", "-o", tmp); code != exitcode.AuditFailure {
		t.Fatalf("exit %d, want %d", code, exitcode.AuditFailure)
	}
	blob, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"counterexample"`)) {
		t.Errorf("mutant summary lacks the counterexample key: %s", blob)
	}
}
