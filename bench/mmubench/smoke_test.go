package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
)

// buildMMUReport builds the harness binary the report workloads run.
// Without a profile it reuses the packages this test already compiled.
func buildMMUReport(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mmureport")
	out, err := exec.Command("go", "build", "-pgo=off", "-o", bin, "mmutricks/cmd/mmureport").CombinedOutput()
	if err != nil {
		t.Fatalf("go build mmureport: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload, untraced and traced, for one pass at
// the tiny size and checks the output against BENCHMARK.json: every
// declared metric is emitted with its declared unit, nothing else is,
// and every name is well formed. measure itself fails a run whose
// passes do not reproduce the warm-up checksum.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefModel()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{mmureport: buildMMUReport(t), sz: tiny, ref: ref}
	declared := [2]map[string]string{{}, {}}
	for _, m := range sp.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, mmubench runs %v", got, want)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, mmubench defaults to %d", sp.RunSeconds, runSeconds)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for trace, want := range declared {
			o, err := measure(w, e, 1, 0, trace == 1)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			got := map[string]string{}
			for _, m := range o.metrics {
				if !valid.MatchString(m.name) {
					t.Errorf("%s: malformed metric name %q", w.name, m.name)
				}
				got[m.name] = m.unit
			}
			for name, unit := range want {
				if u, ok := got[name]; !ok || u != unit {
					t.Errorf("%s trace %d: %s emitted with unit %q (present %v), declared %q", w.name, trace, name, u, ok, unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %d: %s is emitted but not declared", w.name, trace, name)
				}
			}
		}
	}
}

// TestChurnIsKbuild: mm-churn's transcription of kbuild.Run, timed or
// not, ends in the same simulated state as kbuild.Run itself.
func TestChurnIsKbuild(t *testing.T) {
	cfg := kbuild.Default()
	cfg.Units = 2
	for _, ks := range mmChurn.kernels {
		want := kernel.New(machine.New(ks.model), ks.cfg)
		kbuild.Run(want, cfg)
		if err := want.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", ks.model.Name, err)
		}
		for _, rec := range []*spans{nil, {}} {
			got := kernel.New(machine.New(ks.model), ks.cfg)
			churn(got, cfg)(rec)
			if err := got.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", ks.model.Name, err)
			}
			if got.M.Led.Now() != want.M.Led.Now() || !slices.Equal(got.M.Mon.Values(), want.M.Mon.Values()) {
				t.Errorf("%s (timed %v): churn ends at cycle %d with counters %v; kbuild.Run at %d with %v",
					ks.model.Name, rec != nil, got.M.Led.Now(), got.M.Mon.Values(), want.M.Led.Now(), want.M.Mon.Values())
			}
		}
	}
}

// TestReadRunsKeepsFailedRuns: an incorrect run keeps its place as NaN,
// and its failed passes are counted.
func TestReadRunsKeepsFailedRuns(t *testing.T) {
	sp, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	ok := result{Correct: true, Attempted: 10, Metrics: map[string]value{"norm_wall_s": {1.5, "s"}}}
	bad := result{Correct: false, Attempted: 10, Failed: 2, Metrics: map[string]value{"norm_wall_s": {1.2, "s"}}}
	for _, r := range []result{ok, bad, ok} {
		if err := appendRecord(path, record{Workload: "mm-churn", result: r}); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := readRuns(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	got := rs.values["mm-churn"]["norm_wall_s"]
	if len(got) != 3 || got[0] != 1.5 || !math.IsNaN(got[1]) || got[2] != 1.5 {
		t.Errorf("norm_wall_s runs %v, want [1.5 NaN 1.5]", got)
	}
	if n := len(rs.values["mm-churn"]["setup_s"]); n != 3 {
		t.Errorf("setup_s has %d runs, want 3 (NaN where a run lacks it)", n)
	}
	if rs.attempted["mm-churn"] != 30 || rs.failed["mm-churn"] != 2 {
		t.Errorf("failed/attempted %d/%d, want 2/30", rs.failed["mm-churn"], rs.attempted["mm-churn"])
	}
}

// TestSyntheticChecksums: a seed fixes a synthetic pass's final state
// exactly, and another seed changes it.
func TestSyntheticChecksums(t *testing.T) {
	for _, w := range workloads {
		if w.synth == nil {
			continue
		}
		var sums []string
		for _, seed := range []uint64{1, 1, 2} {
			p, err := w.synth.run(seed, tiny, nil, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			sums = append(sums, p.sum)
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: seed 1 checksum changed between passes: %s then %s", w.name, sums[0], sums[1])
		}
		if sums[0] == sums[2] {
			t.Errorf("%s: seeds 1 and 2 both give checksum %s", w.name, sums[0])
		}
	}
}
