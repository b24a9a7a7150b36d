// Package model is an explicit-state model checker for the
// context-switch/MM state machine — the ctxsw.tla module from the
// kernel-tla corpus, ported to Go and pinned to internal/kernel.
//
// The abstract machine has N CPUs, a set of user tasks, and a set of
// mm descriptors with mm_users/mm_count reference counts, plus one
// idle task per CPU and init_mm (the kernel's own space). Actions are
// the seven transitions of the real kernel's scheduling/MM layer:
//
//	mm_init        SpawnTask/Fork — a new task takes a fresh mm
//	context_switch Switch         — a CPU picks a runnable user task
//	borrow_mm      SwitchToIdle   — idle borrows the outgoing space
//	use_mm         UseMM          — a kthread adopts a task's space
//	unuse_mm       UnuseMM        — the kthread lets go again
//	exit_mm        Exit           — the current task dies
//	vsid_reassign  FlushTaskContext — lazy flush: new VSID generation
//
// Explore (explore.go) walks every reachable state by BFS and checks
// SchedInv, MMInv, the exact refcount identities, and the VSID
// generation invariant on each one; Refine (refine.go) replays seeded
// random action sequences against the real kernel at N=1 and compares
// the two step by step. The transitions analyzer
// (tools/analyzers/transitions) keeps the action table above and the
// kernel's exported mutators in lockstep.
package model

import "fmt"

// Hard capacity limits: State must be a comparable fixed-size value
// (it is the visited-set key), so every array is sized for the
// largest checkable configuration.
const (
	MaxCPUs  = 3
	MaxTasks = 8 // user tasks; idle tasks are extra
	MaxMMs   = 6 // user mms; init_mm is extra
)

// maxSlots is the task array size: one idle task per CPU + user tasks.
const maxSlots = MaxCPUs + MaxTasks

// maxMMSlots is the mm array size: init_mm + user mms.
const maxMMSlots = 1 + MaxMMs

// Params bounds one checking run.
type Params struct {
	CPUs  int // number of CPUs (1..MaxCPUs)
	Tasks int // number of user tasks (1..MaxTasks)
	MMs   int // number of user mm descriptors (1..MaxMMs)
	Gens  int // VSID generations per mm (>= 1; 1 disables vsid_reassign)
}

// Validate reports whether p fits the fixed-size state encoding.
func (p Params) Validate() error {
	switch {
	case p.CPUs < 1 || p.CPUs > MaxCPUs:
		return fmt.Errorf("cpus must be 1..%d, got %d", MaxCPUs, p.CPUs)
	case p.Tasks < 1 || p.Tasks > MaxTasks:
		return fmt.Errorf("tasks must be 1..%d, got %d", MaxTasks, p.Tasks)
	case p.MMs < 1 || p.MMs > MaxMMs:
		return fmt.Errorf("mms must be 1..%d, got %d", MaxMMs, p.MMs)
	case p.Gens < 1 || p.Gens > 120:
		return fmt.Errorf("gens must be 1..120, got %d", p.Gens)
	}
	return nil
}

// Task phases. Idle tasks stay phaseIdle forever; user tasks go
// new -> live -> exited.
const (
	phaseIdle int8 = iota
	phaseNew
	phaseLive
	phaseExited
)

// none marks an empty mm/cpu slot reference.
const none int8 = -1

// initMM is the mm index of init_mm.
const initMM int8 = 0

// State is one configuration of the abstract machine. It is a plain
// comparable value: the explorer uses it directly as the visited-set
// key, so equal states canonically collide. Task slots 0..CPUs-1 are
// the per-CPU idle tasks; CPUs..CPUs+Tasks-1 the user tasks. MM slot
// 0 is init_mm; 1..MMs the user descriptors. Freed mm slots are
// zeroed (including the generation) so re-allocation is canonical.
type State struct {
	TaskMM     [maxSlots]int8 // mm the task *uses* (owns/adopted); none if borrowing only
	TaskActive [maxSlots]int8 // mm the task's CPU context names (Linux active_mm)
	TaskCPU    [maxSlots]int8 // CPU the task occupies; none if off-CPU
	TaskPhase  [maxSlots]int8
	MMUsers    [maxMMSlots]int8
	MMCount    [maxMMSlots]int8
	MMGen      [maxMMSlots]int8 // VSID generation of the mm's context
	CPUGen     [MaxCPUs]int8    // VSID generation the CPU's segment registers hold
	CPUTask    [MaxCPUs]int8    // task currently on the CPU (always some task)
}

// Init is the boot state: every CPU runs its idle task borrowing
// init_mm, whose count is one permanent kernel reference plus one
// borrow per CPU; user tasks wait un-initialized.
func Init(p Params) State {
	var s State
	for i := range s.TaskMM {
		s.TaskMM[i], s.TaskActive[i], s.TaskCPU[i] = none, none, none
	}
	for c := range s.CPUTask {
		s.CPUTask[c] = none
	}
	for c := 0; c < p.CPUs; c++ {
		s.CPUTask[c] = int8(c)
		s.TaskCPU[c] = int8(c)
		s.TaskActive[c] = initMM
		s.TaskPhase[c] = phaseIdle
	}
	for t := p.CPUs; t < p.CPUs+p.Tasks; t++ {
		s.TaskPhase[t] = phaseNew
	}
	s.MMCount[initMM] = int8(p.CPUs) + 1
	return s
}

// Mutant selects a seeded bug to plant in the transition relation —
// the model-side mirror of the kernel's //go:build mmumutant seams.
// The checker must produce a counterexample for every non-None value;
// that the real kernel build-tag mutant is caught end to end is the
// mutation gate, TestMutantGate.
type Mutant int

const (
	// MutantNone is the faithful transition relation.
	MutantNone Mutant = iota
	// MutantSkipUnusePut makes unuse_mm skip the final mmput — the
	// same bug internal/kernel/mm_mutant.go plants under the
	// mmumutant build tag.
	MutantSkipUnusePut
	// MutantSkipSwitchDrop makes context_switch away from a lazy
	// borrower keep the stale existence reference (a missed mmdrop).
	MutantSkipSwitchDrop
)

// MutantByName maps the -mutate flag spelling to a Mutant.
var MutantByName = map[string]Mutant{
	"none":             MutantNone,
	"skip-unuse-put":   MutantSkipUnusePut,
	"skip-switch-drop": MutantSkipSwitchDrop,
}

func (m Mutant) String() string {
	for name, v := range MutantByName {
		if v == m {
			return name
		}
	}
	return fmt.Sprintf("mutant(%d)", int(m))
}

// Action identifies one transition schema of the state machine. The
// table below is the model side of the model↔kernel pin: the
// transitions analyzer parses these Name literals and requires each
// to map to a named kernel function (and each kernel mm-mutating
// entry point to appear here or be exempted).
type Action struct {
	Name string
	// Arity is how many arguments a concrete step carries (<= 2).
	Arity int
}

// Action indices — Step.Action values and the canonical firing order.
const (
	ActMMInit = iota
	ActContextSwitch
	ActBorrowMM
	ActUseMM
	ActUnuseMM
	ActExitMM
	ActVSIDReassign
	numActions
)

// Actions is the declarative action table, indexed by the Act*
// constants.
var Actions = [numActions]Action{
	{Name: "mm_init", Arity: 2},        // (task, mm)
	{Name: "context_switch", Arity: 2}, // (cpu, task)
	{Name: "borrow_mm", Arity: 1},      // (cpu)
	{Name: "use_mm", Arity: 2},         // (cpu, mm)
	{Name: "unuse_mm", Arity: 1},       // (cpu)
	{Name: "exit_mm", Arity: 1},        // (cpu)
	{Name: "vsid_reassign", Arity: 1},  // (cpu)
}

// Step is one concrete action firing: the action index plus its
// arguments (unused trailing arguments are zero).
type Step struct {
	Action int8
	A, B   int8
}

// String renders a step the way counterexample scripts print it.
func (st Step) String() string {
	switch int(st.Action) {
	case ActMMInit:
		return fmt.Sprintf("mm_init task=%d mm=%d", st.A, st.B)
	case ActContextSwitch:
		return fmt.Sprintf("context_switch cpu=%d task=%d", st.A, st.B)
	case ActBorrowMM:
		return fmt.Sprintf("borrow_mm cpu=%d", st.A)
	case ActUseMM:
		return fmt.Sprintf("use_mm cpu=%d mm=%d", st.A, st.B)
	case ActUnuseMM:
		return fmt.Sprintf("unuse_mm cpu=%d", st.A)
	case ActExitMM:
		return fmt.Sprintf("exit_mm cpu=%d", st.A)
	case ActVSIDReassign:
		return fmt.Sprintf("vsid_reassign cpu=%d", st.A)
	}
	return fmt.Sprintf("action(%d) a=%d b=%d", st.Action, st.A, st.B)
}

// mmdrop drops one existence reference; the final one frees the slot,
// which is zeroed (generation included) so the encoding stays
// canonical across alloc/free cycles.
func (s *State) mmdrop(m int8, mut Mutant) {
	s.MMCount[m]--
	if s.MMCount[m] == 0 && m != initMM {
		s.MMGen[m] = 0
	}
}

// mmput drops one user reference; the final user's collective
// existence reference goes with it (__mmput -> mmdrop).
func (s *State) mmput(m int8, mut Mutant) {
	s.MMUsers[m]--
	if s.MMUsers[m] == 0 {
		s.mmdrop(m, mut)
	}
}

// Enabled reports whether step can fire in s.
func Enabled(p Params, s *State, st Step) bool {
	switch int(st.Action) {
	case ActMMInit:
		t, m := st.A, st.B
		return int(t) >= p.CPUs && int(t) < p.CPUs+p.Tasks && s.TaskPhase[t] == phaseNew &&
			int(m) >= 1 && int(m) <= p.MMs && s.MMUsers[m] == 0 && s.MMCount[m] == 0
	case ActContextSwitch:
		c, t := st.A, st.B
		if int(c) >= p.CPUs || int(t) < p.CPUs || int(t) >= p.CPUs+p.Tasks {
			return false
		}
		if s.TaskPhase[t] != phaseLive || s.TaskCPU[t] != none {
			return false
		}
		// A UseMM span pins the CPU: the idle task on c must not have
		// adopted a space.
		prev := s.CPUTask[c]
		return !(s.TaskPhase[prev] == phaseIdle && s.TaskMM[prev] != none)
	case ActBorrowMM:
		c := st.A
		if int(c) >= p.CPUs {
			return false
		}
		// Only a live user task switches out to idle.
		return s.TaskPhase[s.CPUTask[c]] == phaseLive
	case ActUseMM:
		c, m := st.A, st.B
		if int(c) >= p.CPUs || int(m) < 1 || int(m) > p.MMs {
			return false
		}
		cur := s.CPUTask[c]
		return s.TaskPhase[cur] == phaseIdle && s.TaskMM[cur] == none && s.MMUsers[m] > 0
	case ActUnuseMM:
		c := st.A
		if int(c) >= p.CPUs {
			return false
		}
		cur := s.CPUTask[c]
		return s.TaskPhase[cur] == phaseIdle && s.TaskMM[cur] != none
	case ActExitMM:
		c := st.A
		if int(c) >= p.CPUs {
			return false
		}
		return s.TaskPhase[s.CPUTask[c]] == phaseLive
	case ActVSIDReassign:
		c := st.A
		if int(c) >= p.CPUs {
			return false
		}
		cur := s.CPUTask[c]
		return s.TaskPhase[cur] == phaseLive && int(s.MMGen[s.TaskMM[cur]]) < p.Gens-1
	}
	return false
}

// Apply fires step on s (which must be Enabled) under the given
// mutant.
func Apply(p Params, s *State, st Step, mut Mutant) {
	switch int(st.Action) {
	case ActMMInit:
		t, m := st.A, st.B
		s.TaskMM[t] = m
		s.TaskActive[t] = m
		s.TaskPhase[t] = phaseLive
		s.MMUsers[m] = 1
		s.MMCount[m] = 1
	case ActContextSwitch:
		c, t := st.A, st.B
		prev := s.CPUTask[c]
		s.CPUTask[c] = t
		s.TaskCPU[t] = c
		s.TaskActive[t] = s.TaskMM[t]
		s.CPUGen[c] = s.MMGen[s.TaskMM[t]] // switch_mm: segment reload
		s.TaskCPU[prev] = none
		if s.TaskMM[prev] == none && s.TaskActive[prev] != none {
			// The outgoing lazy borrower lets its borrow go.
			if mut != MutantSkipSwitchDrop {
				s.mmdrop(s.TaskActive[prev], mut)
			}
			s.TaskActive[prev] = none
		}
	case ActBorrowMM:
		c := st.A
		prev := s.CPUTask[c]
		m := s.TaskActive[prev]
		s.MMCount[m]++ // mmgrab: idle borrows the space
		s.CPUTask[c] = c
		s.TaskCPU[c] = c
		s.TaskActive[c] = m
		s.TaskCPU[prev] = none
		// Lazy TLB: no segment reload, CPUGen unchanged.
	case ActUseMM:
		c, m := st.A, st.B
		cur := s.CPUTask[c]
		s.MMUsers[m]++ // mmget: a real user reference
		old := s.TaskActive[cur]
		s.TaskMM[cur] = m
		s.TaskActive[cur] = m
		s.CPUGen[c] = s.MMGen[m] // switch_mm: the kthread loads m's segments
		s.mmdrop(old, mut)       // the previous borrow is released
	case ActUnuseMM:
		c := st.A
		cur := s.CPUTask[c]
		m := s.TaskMM[cur]
		s.MMCount[m]++ // mmgrab: the CPU keeps m as a lazy borrow
		s.TaskMM[cur] = none
		if mut != MutantSkipUnusePut {
			s.mmput(m, mut)
		}
	case ActExitMM:
		c := st.A
		cur := s.CPUTask[c]
		m := s.TaskMM[cur]
		// The task dies; the CPU falls back to its idle task, which
		// inherits the space as a lazy borrow (mmgrab before the
		// dying task's mmput, exactly like kernel exit_mm).
		s.MMCount[m]++
		s.TaskMM[cur] = none
		s.TaskActive[cur] = none
		s.TaskCPU[cur] = none
		s.TaskPhase[cur] = phaseExited
		s.mmput(m, mut)
		s.CPUTask[c] = c
		s.TaskCPU[c] = c
		s.TaskActive[c] = m
		// Lazy TLB: segments still name m, CPUGen unchanged.
	case ActVSIDReassign:
		c := st.A
		cur := s.CPUTask[c]
		m := s.TaskMM[cur]
		s.MMGen[m]++
		// Broadcast: every CPU whose loaded context names m reloads —
		// the SMP shootdown obligation ROADMAP item 1 inherits.
		for q := 0; q < p.CPUs; q++ {
			if s.TaskActive[s.CPUTask[q]] == m {
				s.CPUGen[q] = s.MMGen[m]
			}
		}
	}
}

// steps enumerates every concrete step of every action in canonical
// order, calling fn for each enabled one.
func steps(p Params, s *State, fn func(Step)) {
	emit := func(st Step) {
		if Enabled(p, s, st) {
			fn(st)
		}
	}
	for t := p.CPUs; t < p.CPUs+p.Tasks; t++ {
		for m := 1; m <= p.MMs; m++ {
			emit(Step{Action: ActMMInit, A: int8(t), B: int8(m)})
		}
	}
	for c := 0; c < p.CPUs; c++ {
		for t := p.CPUs; t < p.CPUs+p.Tasks; t++ {
			emit(Step{Action: ActContextSwitch, A: int8(c), B: int8(t)})
		}
	}
	for c := 0; c < p.CPUs; c++ {
		emit(Step{Action: ActBorrowMM, A: int8(c)})
	}
	for c := 0; c < p.CPUs; c++ {
		for m := 1; m <= p.MMs; m++ {
			emit(Step{Action: ActUseMM, A: int8(c), B: int8(m)})
		}
	}
	for c := 0; c < p.CPUs; c++ {
		emit(Step{Action: ActUnuseMM, A: int8(c)})
		emit(Step{Action: ActExitMM, A: int8(c)})
		emit(Step{Action: ActVSIDReassign, A: int8(c)})
	}
}

// EnabledSteps returns every enabled step of s in canonical order.
func EnabledSteps(p Params, s *State) []Step {
	var out []Step
	steps(p, s, func(st Step) { out = append(out, st) })
	return out
}
