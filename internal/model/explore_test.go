package model

import (
	"reflect"
	"testing"
)

// TestExhaustiveClean explores several parameterizations to closure
// and requires zero invariant violations. The counts are pinned:
// a change in the state count means the transition system changed,
// which must be a deliberate, reviewed act (the transitions analyzer
// ties the action table to the kernel's entry points, and the
// refinement tests tie the semantics to the kernel's behaviour).
func TestExhaustiveClean(t *testing.T) {
	cases := []struct {
		p           Params
		states      uint64
		transitions uint64
		depth       int
	}{
		{Params{CPUs: 1, Tasks: 1, MMs: 1, Gens: 2}, 10, 14, 5},
		{Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 2}, 131, 312, 8},
		{Params{CPUs: 2, Tasks: 2, MMs: 2, Gens: 2}, 983, 4096, 9},
		{Params{CPUs: 2, Tasks: 3, MMs: 2, Gens: 2}, 4453, 20282, 12},
		{Params{CPUs: 3, Tasks: 2, MMs: 2, Gens: 2}, 6115, 37456, 11},
	}
	for _, c := range cases {
		res, err := Explore(c.p, ExploreOpts{Workers: 4})
		if err != nil {
			t.Fatalf("%+v: %v", c.p, err)
		}
		if res.Violation != nil {
			t.Fatalf("%+v: violation %q after\n%s", c.p, res.Violation.Err,
				res.Violation.Script(c.p, MutantNone))
		}
		if res.States != c.states || res.Transitions != c.transitions || res.Depth != c.depth {
			t.Errorf("%+v: got states=%d transitions=%d depth=%d, want %d/%d/%d",
				c.p, res.States, res.Transitions, res.Depth, c.states, c.transitions, c.depth)
		}
	}
}

// TestMutantsCaught seeds each mutation and requires the checker to
// find a violation, with the minimal (BFS-shortest) trace pinned.
// skip-unuse-put is the same mutation the //go:build mmumutant kernel
// build carries, so this is the model half of the mutation gate.
func TestMutantsCaught(t *testing.T) {
	p := Params{CPUs: 1, Tasks: 2, MMs: 2, Gens: 2}
	cases := []struct {
		mut   Mutant
		trace []string
	}{
		{MutantSkipUnusePut, []string{
			"mm_init task=1 mm=1",
			"use_mm cpu=0 mm=1",
			"unuse_mm cpu=0",
		}},
		{MutantSkipSwitchDrop, []string{
			"mm_init task=1 mm=1",
			"context_switch cpu=0 task=1",
		}},
	}
	for _, c := range cases {
		res, err := Explore(p, ExploreOpts{Workers: 4, Mutant: c.mut})
		if err != nil {
			t.Fatalf("%s: %v", c.mut, err)
		}
		if res.Violation == nil {
			t.Fatalf("%s: mutation not caught (%d states explored)", c.mut, res.States)
		}
		got := make([]string, len(res.Violation.Trace))
		for i, st := range res.Violation.Trace {
			got[i] = st.String()
		}
		if !reflect.DeepEqual(got, c.trace) {
			t.Errorf("%s: minimal trace %q, want %q", c.mut, got, c.trace)
		}
	}
}

// TestWorkerDeterminism runs the same exploration at several worker
// counts and requires byte-identical results: same counts, same
// depth, and — with a mutant seeded — the same violation trace. This
// is the property that lets CI run -j equal to the machine's core
// count while golden tests pin exact output bytes.
func TestWorkerDeterminism(t *testing.T) {
	p := Params{CPUs: 2, Tasks: 3, MMs: 2, Gens: 2}
	base, err := Explore(p, ExploreOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		res, err := Explore(p, ExploreOpts{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != base.States || res.Transitions != base.Transitions || res.Depth != base.Depth {
			t.Errorf("workers=%d: states/transitions/depth %d/%d/%d differ from workers=1 %d/%d/%d",
				w, res.States, res.Transitions, res.Depth, base.States, base.Transitions, base.Depth)
		}
	}

	// And with a violation present: the reported trace must not depend
	// on scheduling either.
	mp := Params{CPUs: 2, Tasks: 2, MMs: 2, Gens: 2}
	mbase, err := Explore(mp, ExploreOpts{Workers: 1, Mutant: MutantSkipUnusePut})
	if err != nil {
		t.Fatal(err)
	}
	if mbase.Violation == nil {
		t.Fatal("mutant exploration found no violation")
	}
	for _, w := range []int{3, 8} {
		res, err := Explore(mp, ExploreOpts{Workers: w, Mutant: MutantSkipUnusePut})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatalf("workers=%d: violation vanished", w)
		}
		if res.Violation.Script(mp, MutantSkipUnusePut) != mbase.Violation.Script(mp, MutantSkipUnusePut) {
			t.Errorf("workers=%d: counterexample script differs from workers=1", w)
		}
	}
}

// TestInitSatisfiesInvariants: the initial state for every legal
// parameterization passes Check (idle borrowing init_mm, count
// CPUs+1).
func TestInitSatisfiesInvariants(t *testing.T) {
	for cpus := 1; cpus <= MaxCPUs; cpus++ {
		for tasks := 1; tasks <= 4; tasks++ {
			p := Params{CPUs: cpus, Tasks: tasks, MMs: 2, Gens: 2}
			s := Init(p)
			if err := Check(p, &s); err != nil {
				t.Errorf("%+v: init state violates %v", p, err)
			}
			if s.MMCount[initMM] != int8(cpus+1) {
				t.Errorf("%+v: init_mm count %d, want %d", p, s.MMCount[initMM], cpus+1)
			}
		}
	}
}

// TestParamsValidate pins the parameter envelope.
func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{CPUs: 0, Tasks: 1, MMs: 1, Gens: 2},
		{CPUs: MaxCPUs + 1, Tasks: 1, MMs: 1, Gens: 2},
		{CPUs: 1, Tasks: 0, MMs: 1, Gens: 2},
		{CPUs: 1, Tasks: MaxTasks + 1, MMs: 1, Gens: 2},
		{CPUs: 1, Tasks: 1, MMs: 0, Gens: 2},
		{CPUs: 1, Tasks: 1, MMs: MaxMMs + 1, Gens: 2},
		{CPUs: 1, Tasks: 1, MMs: 1, Gens: 0},
		{CPUs: 1, Tasks: 1, MMs: 1, Gens: 121},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", p)
		}
	}
	if err := (Params{CPUs: 2, Tasks: 3, MMs: 2, Gens: 2}).Validate(); err != nil {
		t.Errorf("legal params rejected: %v", err)
	}
}

// TestActionTable sanity-checks the action table the transitions
// analyzer parses: names unique and non-empty, arities in range, and
// every action reachable (fires at least once) in a small exhaustive
// run — a dead table row would mean the analyzer certifies a mapping
// the checker never exercises.
func TestActionTable(t *testing.T) {
	seen := map[string]bool{}
	for i, a := range Actions {
		if a.Name == "" {
			t.Fatalf("action %d has no name", i)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate action name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Arity < 0 || a.Arity > 2 {
			t.Fatalf("action %q arity %d out of range", a.Name, a.Arity)
		}
	}

	p := Params{CPUs: 2, Tasks: 2, MMs: 2, Gens: 2}
	fired := map[int]bool{}
	s := Init(p)
	visited := map[State]bool{}
	var visit func(st State, depth int)
	visit = func(st State, depth int) {
		if depth == 0 || visited[st] {
			return
		}
		visited[st] = true
		steps(p, &st, func(step Step) {
			fired[int(step.Action)] = true
			next := st
			Apply(p, &next, step, MutantNone)
			visit(next, depth-1)
		})
	}
	visit(s, 6)
	for i, a := range Actions {
		if !fired[i] {
			t.Errorf("action %q never enabled within depth 6", a.Name)
		}
	}
}
