package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mmutricks/internal/exitcode"
	"mmutricks/internal/model"
)

// modelOutput is the model -o JSON document. The "counterexample" key
// is the machine-readable contract: CI greps for it to decide whether
// a mutation run actually produced one.
type modelOutput struct {
	Mode           string     `json:"mode"` // "explore" or "refine"
	CPUs           int        `json:"cpus"`
	Tasks          int        `json:"tasks"`
	MMs            int        `json:"mms"`
	Gens           int        `json:"gens"`
	Mutant         string     `json:"mutant"`
	States         uint64     `json:"states,omitempty"`
	Transitions    uint64     `json:"transitions,omitempty"`
	Depth          int        `json:"depth,omitempty"`
	Walks          int        `json:"walks,omitempty"`
	StepsExecuted  uint64     `json:"steps_executed,omitempty"`
	Seed           uint64     `json:"seed,omitempty"`
	ElapsedMS      float64    `json:"elapsed_ms"`
	Counterexample *counterex `json:"counterexample,omitempty"`
}

type counterex struct {
	Violation string   `json:"violation"`
	Trace     []string `json:"trace"`
	Script    string   `json:"script"`
}

// runModel model-checks the context-switch/MM state machine of
// internal/kernel. Two modes:
//
// Exhaustive exploration (default): BFS over every reachable state of
// the abstract N-CPU machine (internal/model), checking the
// scheduling, mm-refcount, and VSID-generation invariants on each.
// The result is deterministic at any -j; a violation prints as a
// minimal replayable action script and exits 5.
//
// Refinement (-refine): seeded random walks at N=1, each step
// replayed against a real booted kernel with the abstract states
// compared after every step. A divergence is minimized and printed
// the same way. Built with `-tags mmumutant` this must find the
// planted UnuseMM bug — CI's mutation gate.
//
//	mmu model [-cpus N] [-tasks N] [-mms N] [-gens N] [-j N]
//	    [-mutate name] [-refine] [-walks N] [-steps N] [-seed N] [-o file.json]
//
// Exit status (the internal/exitcode contract): 0 clean, 5
// violation/divergence found (an audit failure — the machine ran but
// its invariants did not hold), 2 usage error, 1 internal error.
func runModel(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu model", stderr)
	var (
		cpus   = f.Int("cpus", 1, "CPUs in the abstract machine")
		tasks  = f.Int("tasks", 2, "user tasks")
		mms    = f.Int("mms", 2, "user mm descriptors")
		gens   = f.Int("gens", 2, "VSID generations per mm (1 disables vsid_reassign)")
		j      = f.jobs()
		mutate = f.String("mutate", "none", "plant a model-side bug: none, skip-unuse-put, skip-switch-drop")
		refine = f.Bool("refine", false, "replay seeded walks against the real kernel at N=1")
		walks  = f.Int("walks", 50, "refinement walks")
		steps  = f.Int("steps", 80, "max steps per walk")
		seed   = f.Uint64("seed", 1, "refinement base seed")
		outX   = f.out("", "write a JSON summary to this file")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	mut, ok := model.MutantByName[*mutate]
	if !ok {
		names := make([]string, 0, len(model.MutantByName))
		for n := range model.MutantByName {
			names = append(names, n)
		}
		sort.Strings(names)
		return f.fail(exitcode.Usage, fmt.Errorf("unknown mutant %q (have %v)", *mutate, names))
	}
	p := model.Params{CPUs: *cpus, Tasks: *tasks, MMs: *mms, Gens: *gens}
	out := modelOutput{CPUs: p.CPUs, Tasks: p.Tasks, MMs: p.MMs, Gens: p.Gens, Mutant: mut.String()}
	start := time.Now()

	var script string
	if *refine {
		out.Mode = "refine"
		res, err := model.Refine(p, model.RefineOpts{Walks: *walks, Steps: *steps, Seed: *seed, Mutant: mut})
		if err != nil {
			// Refine only fails before the first walk, on parameter
			// validation: a usage error, not a harness one.
			return f.fail(exitcode.Usage, err)
		}
		out.Walks, out.StepsExecuted, out.Seed = res.Walks, res.StepsExecuted, res.Seed
		if v := res.Violation; v != nil {
			script = v.Script(p)
			out.Counterexample = &counterex{Violation: v.Err, Trace: stepStrings(v.Trace), Script: script}
		}
	} else {
		out.Mode = "explore"
		res, err := model.Explore(p, model.ExploreOpts{Workers: *j, Mutant: mut})
		if err != nil {
			// Explore only fails before the first state, on parameter
			// validation: a usage error, not a harness one.
			return f.fail(exitcode.Usage, err)
		}
		out.States, out.Transitions, out.Depth = res.States, res.Transitions, res.Depth
		if v := res.Violation; v != nil {
			script = v.Script(p, mut)
			out.Counterexample = &counterex{Violation: v.Err, Trace: stepStrings(v.Trace), Script: script}
		}
	}
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	if *outX != "" {
		blob, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			return f.fail(exitcode.Internal, err)
		}
		if err := os.WriteFile(*outX, append(blob, '\n'), 0o644); err != nil {
			return f.fail(exitcode.Internal, err)
		}
	}

	if out.Counterexample != nil {
		fmt.Fprint(stdout, script)
		return exitcode.AuditFailure
	}
	if out.Mode == "refine" {
		fmt.Fprintf(stdout, "mmumodel: refine cpus=%d tasks=%d mms=%d gens=%d: %d walks, %d steps replayed, no divergence (%.1fms)\n",
			p.CPUs, p.Tasks, p.MMs, p.Gens, out.Walks, out.StepsExecuted, out.ElapsedMS)
	} else {
		fmt.Fprintf(stdout, "mmumodel: explore cpus=%d tasks=%d mms=%d gens=%d: %d states, %d transitions, depth %d, no violations (%.1fms)\n",
			p.CPUs, p.Tasks, p.MMs, p.Gens, out.States, out.Transitions, out.Depth, out.ElapsedMS)
	}
	return exitcode.OK
}

func stepStrings(trace []model.Step) []string {
	out := make([]string, len(trace))
	for i, st := range trace {
		out[i] = st.String()
	}
	return out
}
