package model

import (
	"fmt"
	"strings"

	"mmutricks/internal/clock"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
)

// Refinement: the model is only worth trusting if it is a faithful
// abstraction of internal/kernel. Refine drives both machines in
// lockstep at N=1 — seeded random walks over the model's enabled
// steps, each step replayed as the corresponding kernel call — and
// compares the abstract state after every step: current task, UseMM
// adoption, the active space, registration, and the exact
// mm_users/mm_count values, plus a full kernel CheckConsistency. A
// divergence is minimized by greedy step removal into the shortest
// replayable script that still distinguishes the two. This is also
// the teeth of the mutation gate (TestMutantGate): the same walks
// against the -tags mmumutant kernel build must produce a
// counterexample.

// RefineOpts tunes Refine.
type RefineOpts struct {
	Walks int    // number of independent random walks
	Steps int    // maximum steps per walk
	Seed  uint64 // base seed; walk w uses Seed+w
	// Mutant plants a bug in the SHADOW model (the kernel stays as
	// built): the refinement must then report a divergence, which
	// exercises the full detect-and-minimize path without a mutant
	// kernel build. The mutation gate is the converse: a faithful
	// shadow against the -tags mmumutant kernel.
	Mutant Mutant
}

// RefineViolation is one model↔kernel divergence, minimized.
type RefineViolation struct {
	Err   string
	Walk  int
	Seed  uint64
	Trace []Step
}

// RefineResult summarizes a refinement run.
type RefineResult struct {
	Params        Params
	Walks, Steps  int
	Seed          uint64
	StepsExecuted uint64
	Violation     *RefineViolation
}

// Script renders the minimized divergence as a replayable action
// script, same grammar as Violation.Script.
func (v *RefineViolation) Script(p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# mmumodel refinement counterexample (cpus=%d tasks=%d mms=%d gens=%d seed=%#x walk=%d)\n",
		p.CPUs, p.Tasks, p.MMs, p.Gens, v.Seed, v.Walk)
	fmt.Fprintf(&b, "# tasks 0..%d are per-CPU idle tasks; mm 0 is init_mm\n", p.CPUs-1)
	for _, st := range v.Trace {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "# divergence: %s\n", v.Err)
	return b.String()
}

// splitmix64 is the walk RNG: tiny, seedable, and stable across Go
// versions (unlike math/rand's stream), so a recorded seed replays
// byte-identically forever.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Refine runs seeded random walks of the model at N=1, replaying each
// step against a fresh real kernel and comparing after every step.
func Refine(p Params, opts RefineOpts) (RefineResult, error) {
	if err := p.Validate(); err != nil {
		return RefineResult{}, err
	}
	if p.CPUs != 1 {
		return RefineResult{}, fmt.Errorf("refinement runs at cpus=1 (the kernel simulates one CPU), got %d", p.CPUs)
	}
	res := RefineResult{Params: p, Walks: opts.Walks, Steps: opts.Steps, Seed: opts.Seed}
	for w := 0; w < opts.Walks; w++ {
		seed := opts.Seed + uint64(w)
		trace, executed := walk(p, seed, opts.Steps, opts.Mutant)
		res.StepsExecuted += executed
		if trace == nil {
			continue
		}
		min := minimize(p, trace, opts.Mutant)
		err, _, _ := replay(p, min, opts.Mutant)
		res.Violation = &RefineViolation{
			Err:   err.Error(),
			Walk:  w,
			Seed:  opts.Seed,
			Trace: min,
		}
		return res, nil
	}
	return res, nil
}

// walk performs one seeded random walk and returns the step prefix up
// to and including the first diverging step (nil if the whole walk
// stays in agreement), plus the number of steps executed.
func walk(p Params, seed uint64, maxSteps int, mut Mutant) ([]Step, uint64) {
	r := newReplayer(p, mut)
	rng := seed
	var trace []Step
	for len(trace) < maxSteps {
		en := EnabledSteps(p, &r.shadow)
		if len(en) == 0 {
			break // terminal: every task exited, nothing to adopt
		}
		st := en[splitmix64(&rng)%uint64(len(en))]
		trace = append(trace, st)
		if err := r.step(st); err != nil {
			return trace, uint64(len(trace))
		}
	}
	return nil, uint64(len(trace))
}

// minimize shrinks a diverging trace by delta debugging: remove
// contiguous chunks (halving the chunk size down to single steps)
// while the remainder is still model-feasible and still diverges,
// truncating at the diverging step each time. Single-step removal
// alone sticks at local minima — e.g. a context_switch/exit_mm pair
// where each step alone is load-bearing for the other's guard —
// which chunk removal escapes. The result is 1-minimal, not globally
// minimal (the walk is random, not BFS), but in practice collapses
// long walks to the few-step essence of the bug.
func minimize(p Params, trace []Step, mut Mutant) []Step {
	if err, idx, feasible := replay(p, trace, mut); err != nil && feasible {
		trace = trace[:idx+1]
	}
	for removed := true; removed; {
		removed = false
	sizes:
		for size := len(trace) / 2; size >= 1; size /= 2 {
			for i := 0; i+size <= len(trace); i++ {
				cand := make([]Step, 0, len(trace)-size)
				cand = append(cand, trace[:i]...)
				cand = append(cand, trace[i+size:]...)
				if err, idx, feasible := replay(p, cand, mut); feasible && err != nil {
					trace = cand[:idx+1]
					removed = true
					break sizes
				}
			}
		}
	}
	return trace
}

// replay runs a whole script from boot and reports the first
// divergence (nil if none), the index of the diverging step, and
// whether every step was model-enabled in sequence.
func replay(p Params, trace []Step, mut Mutant) (err error, idx int, feasible bool) {
	r := newReplayer(p, mut)
	for i, st := range trace {
		if !Enabled(p, &r.shadow, st) {
			return nil, i, false
		}
		if err := r.step(st); err != nil {
			return err, i, true
		}
	}
	return nil, len(trace), true
}

// replayer holds one lockstep pair: the faithful shadow model and a
// real kernel, with the model-index → kernel-object bindings.
type replayer struct {
	p      Params
	mut    Mutant // shadow-side mutant (MutantNone for real refinement)
	shadow State
	k      *kernel.Kernel
	img    *kernel.Image
	task   [maxSlots]*kernel.Task
	mm     [maxMMSlots]*kernel.MM
}

func newReplayer(p Params, mut Mutant) *replayer {
	r := &replayer{
		p:      p,
		mut:    mut,
		shadow: Init(p),
		k:      kernel.New(machine.New(clock.PPC604At185()), kernel.Optimized()),
	}
	r.img = r.k.LoadImage("refine", 8)
	r.mm[initMM] = r.k.InitMM()
	return r
}

// step fires st (which must be Enabled on the shadow) on both
// machines and compares. A kernel panic is a divergence, not a crash:
// the kernel's own refcount underflow checks are part of the
// specification being compared.
func (r *replayer) step(st Step) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("kernel panic on %q: %v", st, p)
		}
	}()
	switch int(st.Action) {
	case ActMMInit:
		t := r.k.SpawnTask(r.img)
		r.task[st.A] = t
		r.mm[st.B] = t.MM()
	case ActContextSwitch:
		r.k.Switch(r.task[st.B])
	case ActBorrowMM:
		r.k.SwitchToIdle()
	case ActUseMM:
		// The space's owner: the (unique at N=1) live off-CPU task
		// using st.B.
		owner := none
		for t := r.p.CPUs; t < r.p.CPUs+r.p.Tasks; t++ {
			if r.shadow.TaskPhase[t] == phaseLive && r.shadow.TaskMM[t] == st.B {
				owner = int8(t)
				break
			}
		}
		if owner == none {
			return fmt.Errorf("use_mm mm=%d has no live owner", st.B)
		}
		r.k.UseMM(r.task[owner])
	case ActUnuseMM:
		r.k.UnuseMM()
	case ActExitMM:
		r.k.Exit()
	case ActVSIDReassign:
		r.k.FlushTaskContext()
	}
	Apply(r.p, &r.shadow, st, r.mut)
	return r.compare()
}

// compare checks the abstraction relation between the shadow state
// and the kernel, and runs the kernel's own CheckConsistency.
func (r *replayer) compare() error {
	if err := r.k.CheckConsistency(); err != nil {
		return fmt.Errorf("kernel consistency: %w", err)
	}

	// Current task: the model's idle-on-CPU is the kernel's cur==nil.
	cur := r.shadow.CPUTask[0]
	if r.shadow.TaskPhase[cur] == phaseIdle {
		if got := r.k.Current(); got != nil {
			return fmt.Errorf("model is idle but kernel current is task %d", got.PID)
		}
	} else if got := r.k.Current(); got != r.task[cur] {
		return fmt.Errorf("model current is task %d but kernel current is %v", cur, got)
	}

	// UseMM adoption.
	if adopted := r.shadow.TaskMM[0]; adopted == none {
		if got := r.k.KthreadMM(); got != nil {
			return fmt.Errorf("model has no UseMM span but kernel kthread mm is %d", got.ID)
		}
	} else if got := r.k.KthreadMM(); got != r.mm[adopted] {
		return fmt.Errorf("model UseMM space is mm %d but kernel kthread mm is %v", adopted, got)
	}

	// Active space.
	if a := r.shadow.TaskActive[cur]; r.mm[a] != r.k.ActiveMM() {
		return fmt.Errorf("model active mm is %d but kernel active mm is %d", a, r.k.ActiveMM().ID)
	}

	// Per-descriptor liveness and exact refcounts.
	for m := 0; m <= r.p.MMs; m++ {
		km := r.mm[m]
		if km == nil {
			continue // never allocated
		}
		if r.shadow.MMCount[m] == 0 && r.shadow.MMUsers[m] == 0 {
			if r.k.MMRegistered(km) {
				return fmt.Errorf("model freed mm %d but kernel still registers it", m)
			}
			continue
		}
		if !r.k.MMRegistered(km) {
			return fmt.Errorf("model holds mm %d live but kernel freed it", m)
		}
		if int(r.shadow.MMUsers[m]) != km.Users {
			return fmt.Errorf("mm %d: model users=%d, kernel users=%d", m, r.shadow.MMUsers[m], km.Users)
		}
		if int(r.shadow.MMCount[m]) != km.Count {
			return fmt.Errorf("mm %d: model count=%d, kernel count=%d", m, r.shadow.MMCount[m], km.Count)
		}
	}
	return nil
}
