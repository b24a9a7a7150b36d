package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mmutricks/internal/workpool"
)

// marshal renders a report exactly like `mmu chaos` does.
func marshal(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestDeterminismAcrossParallelism is the harness's core promise: the
// same options produce byte-identical JSON whether sections run on one
// worker or many, because every section owns its machine and its
// DeriveSeed-derived injector stream.
func TestDeterminismAcrossParallelism(t *testing.T) {
	opts := Options{
		Workload: "lmbench",
		CPU:      "604/185",
		Config:   "optimized",
		Iters:    30,
		Schedule: "seed=42 rate=2000ppm burst=1 mix=all",
	}
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)

	workpool.SetParallelism(1)
	seq, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run(-j1): %v", err)
	}
	workpool.SetParallelism(8)
	par, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run(-j8): %v", err)
	}

	a, b := marshal(t, seq), marshal(t, par)
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs between -j1 and -j8:\n-j1: %s\n-j8: %s", a, b)
	}
	if !seq.OK {
		for _, s := range seq.Sections {
			t.Logf("section %s failures: %v", s.Name, s.Failures)
		}
		t.Fatal("soak audit failed")
	}
	var mc uint64
	for _, s := range seq.Sections {
		mc += s.MachineChecks
		if !s.Consistent {
			t.Errorf("section %s: post-run consistency sweep dirty", s.Name)
		}
	}
	if mc == 0 {
		t.Fatal("no machine checks delivered across the whole soak; schedule too quiet to test anything")
	}
}

// TestEscalateSectionKillsAndRecovers drives the sacrificial-task
// workload hard enough that page-table poison actually lands, and
// checks the kills are accounted as escalations with a clean audit.
func TestEscalateSectionKillsAndRecovers(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Workload: "escalate",
		CPU:      "604/185",
		Config:   "optimized",
		Iters:    60,
		Schedule: "seed=7 rate=20000ppm burst=1 mix=pte-flip:4,tlb-flip:1",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Sections) != 1 {
		t.Fatalf("got %d sections, want 1", len(rep.Sections))
	}
	s := rep.Sections[0]
	if !s.OK {
		t.Fatalf("escalate section failed: %v", s.Failures)
	}
	if s.Escalations == 0 {
		t.Fatal("no escalations: the pte-flip stream never found a victim")
	}
	if !s.Consistent {
		t.Fatal("post-run consistency sweep dirty after task kills")
	}
}

// TestNonEscalateSectionsDropPTEFlips verifies the schedule guard: a
// plain workload section zeroes the pte-flip weight, so even a
// pte-flip-heavy schedule produces no escalations there.
func TestNonEscalateSectionsDropPTEFlips(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Workload: "lmbench",
		CPU:      "604/185",
		Config:   "optimized",
		Iters:    20,
		Schedule: "seed=3 rate=20000ppm burst=1 mix=pte-flip:8,tlb-flip:1",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.OK {
		t.Fatalf("soak failed: %+v", rep.Sections)
	}
	for _, s := range rep.Sections {
		if s.Escalations != 0 {
			t.Errorf("section %s: %d escalations in a non-escalate section", s.Name, s.Escalations)
		}
		if !strings.Contains(s.Schedule, "mix=") {
			t.Errorf("section %s: schedule %q lost its mix", s.Name, s.Schedule)
		}
		for _, kc := range s.Injected {
			if kc.Kind == "pte-flip" && (kc.Applied != 0 || kc.Skipped != 0) {
				t.Errorf("section %s: pte-flip injected (applied=%d skipped=%d) despite zeroed weight",
					s.Name, kc.Applied, kc.Skipped)
			}
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"cpu", Options{Workload: "lmbench", CPU: "z80/4", Config: "optimized", Schedule: "seed=1"}},
		{"config", Options{Workload: "lmbench", CPU: "604/185", Config: "turbo", Schedule: "seed=1"}},
		{"workload", Options{Workload: "solitaire", CPU: "604/185", Config: "optimized", Schedule: "seed=1"}},
		{"schedule", Options{Workload: "lmbench", CPU: "604/185", Config: "optimized", Schedule: "seed=1 rate=2000000"}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.opts); err == nil {
			t.Errorf("%s: bad option accepted", tc.name)
		}
	}
}
