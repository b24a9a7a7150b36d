// Package telemetry is the cycle-attribution layer of the simulator:
// a phase ledger that charges every simulated cycle to exactly one
// activity phase, and a deterministic interval sampler that snapshots
// the phase totals and hardware counters at fixed sim-cycle boundaries.
//
// Where hwmon answers "how many" and mmtrace answers "when and at what
// cost", telemetry answers "where did the time go, and how did that
// evolve" — the instrumented-kernel profile the paper's methodology is
// built on ("timing and instrumenting a complete recompile of the
// kernel", §4), now with a hard conservation identity behind it:
//
//	sum(phase cycles) + base == clock.Now
//
// holds exactly at every instant (kernel.CheckConsistency enforces it),
// because phases are exclusive: the ledger keeps an explicit phase
// stack, cycles accrue to the innermost phase, and transitions are
// either stack pushes/pops or exact transfers (Attribute, used on the
// allocation-free translation and cache-fill paths where a span cannot
// go). The ledger belongs to the machine's mmtrace.Tracer, the one
// instrumentation point: the kernel enters and leaves phases through
// the tracer's calls (defer t.Exit(t.Enter(ph)), or a typed entering
// call such as Syscall that also bumps its counter), and the
// phasebalance analyzer proves every entry is left on every path.
//
// The ledger is built for the translation hot path:
//
//   - a disabled ledger costs one (inlined) branch per probe;
//   - the enabled paths allocate nothing — the stack, the phase
//     totals, the per-task/per-mm attribution tables and the sample
//     ring are all fixed-size, pre-allocated memory — and the hot
//     path proof (tools/hotpath) checks them in the compiled traced
//     Translate chain;
//   - the ledger never charges simulated cycles itself, so an enabled
//     run is cycle- and counter-identical to a disabled one.
package telemetry

import (
	"fmt"
	"strings"

	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
)

// Phase is one exclusive activity class. The taxonomy generalizes the
// old kernel profiler paths with the activities the paper costs out
// individually: the idle task's reclaim and pre-zero duties (§7, §9),
// swap transfers, machine-check repair, hardware hash walks, and
// instruction-fetch fill stalls.
type Phase int

const (
	// PhaseUser is everything outside the kernel: the program itself.
	PhaseUser Phase = iota
	// PhaseFetch is instruction-fetch fill stalls: the cycles the
	// machine spends filling the I-cache (and I-side inhibited
	// accesses). Attributed by exact transfer, so it never swallows the
	// kernel phase an instruction fetch happens inside.
	PhaseFetch
	// PhaseTLBMiss is TLB-miss handling: the 603's software reload, the
	// 604's hardware hash walk, and the hash-miss interrupt path.
	PhaseTLBMiss
	// PhaseFault is do_page_fault proper (demand paging, COW breaks,
	// protection faults).
	PhaseFault
	// PhaseSyscall is syscall entry/exit and in-kernel service work.
	PhaseSyscall
	// PhaseFlush is TLB/hash-table flushing.
	PhaseFlush
	// PhaseCtxSwitch is the scheduler: context switches and kernel-
	// thread address-space adoption (UseMM/UnuseMM).
	PhaseCtxSwitch
	// PhaseIdleReclaim is the idle task's zombie-PTE reclaim sweeps.
	PhaseIdleReclaim
	// PhasePreZero is the idle task's page pre-zeroing (§9).
	PhasePreZero
	// PhaseSwap is swap-device transfer time (swap-in and swap-out).
	PhaseSwap
	// PhaseMCRepair is machine-check delivery, classification and
	// repair.
	PhaseMCRepair
	// PhaseIdle is the idle task's spin loop (everything in RunIdleFor
	// not spent reclaiming or pre-zeroing).
	PhaseIdle

	// NumPhases is the number of phases.
	NumPhases
)

// phaseNames index-aligns with the Phase constants.
var phaseNames = [NumPhases]string{
	"user",
	"instr-fetch",
	"tlb-miss",
	"page-fault",
	"syscall",
	"flush",
	"ctx-switch",
	"idle-reclaim",
	"pre-zero",
	"swap",
	"mc-repair",
	"idle",
}

func (p Phase) String() string {
	if 0 <= int(p) && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseNames returns every phase name, indexed by Phase — the name
// vector recordings store alongside per-phase value arrays.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}

// AllPhases lists the phases for iteration, in attribution order.
var AllPhases = []Phase{
	PhaseUser, PhaseFetch, PhaseTLBMiss, PhaseFault, PhaseSyscall,
	PhaseFlush, PhaseCtxSwitch, PhaseIdleReclaim, PhasePreZero,
	PhaseSwap, PhaseMCRepair, PhaseIdle,
}

// MaxDepth bounds the phase stack. The deepest real nesting is a
// machine-check taken inside a swap inside a fault inside a syscall
// with flush spans below — well under 8; 32 leaves room for growth and
// keeps the stack in one cache line pair.
const MaxDepth = 32

// TaskSlots sizes the fixed per-task and per-mm attribution tables
// here and in mmtrace. Slots are indexed ID mod TaskSlots: the
// recorded workloads keep well under TaskSlots live IDs, so collisions
// (which would merge two rows) do not arise in practice.
const TaskSlots = 256

// Sample is one deterministic interval snapshot: cumulative phase and
// hardware-counter state at the first attribution point at or after a
// sim-cycle boundary. Successive samples are differenced for rates.
type Sample struct {
	// Cycle is the ledger reading when the sample was taken; Boundary
	// is the interval boundary that triggered it (Cycle >= Boundary,
	// and when attribution points are sparse one sample can cover
	// several elapsed boundaries).
	Cycle    uint64
	Boundary uint64
	// Task and MM identify the task/address space current at the
	// sample; TaskCycles and MMCycles are their cumulative attributed
	// cycles so far.
	Task       uint32
	MM         uint32
	TaskCycles uint64
	MMCycles   uint64
	// Phases holds the cumulative per-phase cycle totals, indexed by
	// Phase.
	Phases [NumPhases]uint64
	// Counters is the cumulative hwmon counter file at the sample.
	Counters hwmon.Counters
}

// DefaultSampleInterval is the sampler period recordings default to:
// 1 Mi cycles (~5.7 ms at 185 MHz), fine enough to resolve benchmark
// sections, coarse enough that the default ring covers half a billion
// cycles.
const DefaultSampleInterval clock.Cycles = 1 << 20

// DefaultSampleCapacity is the default sample-ring size.
const DefaultSampleCapacity = 512

// Options configures Enable.
type Options struct {
	// SampleInterval is the sampler period in simulated cycles; 0
	// disables sampling (the profiler-only mode).
	SampleInterval clock.Cycles
	// SampleCapacity is the sample-ring size; 0 means
	// DefaultSampleCapacity. The ring keeps the FIRST SampleCapacity
	// samples and counts later ones as dropped — the opposite of the
	// mmtrace event ring, which keeps the most recent events: a
	// timeline that silently loses its origin cannot be differenced,
	// while its tail is recoverable from the end-of-run totals.
	SampleCapacity int
}

// Phases is the phase ledger of one simulated machine. It is fixed-size
// after Enable: every enabled-path method touches only pre-allocated
// memory. Like the Machine it instruments, it belongs to one simulation
// goroutine.
type Phases struct {
	led     *clock.Ledger
	mon     *hwmon.Counters
	enabled bool

	depth int
	stack [MaxDepth]Phase
	// base is the ledger reading at Enable; mark is the reading at the
	// last accrue. Conservation: base + sum(cycles) == led.Now().
	base   clock.Cycles
	mark   clock.Cycles
	cycles [NumPhases]clock.Cycles
	// enters counts phase entries (span pushes and Attribute
	// transfers), the quantities Reconcile cross-checks against hwmon.
	enters [NumPhases]uint64

	curTask    uint32
	curMM      uint32
	taskIDs    [TaskSlots]uint32
	mmIDs      [TaskSlots]uint32
	taskCycles [TaskSlots]clock.Cycles
	mmCycles   [TaskSlots]clock.Cycles

	interval clock.Cycles
	next     clock.Cycles
	ring     []Sample
	taken    int
	dropped  uint64
}

// New builds a disabled ledger reading time from led and counter
// snapshots from mon. Disabled, it costs one branch per probe and
// allocates nothing beyond the struct itself (the sample ring is
// allocated by Enable).
func New(led *clock.Ledger, mon *hwmon.Counters) *Phases {
	return &Phases{led: led, mon: mon}
}

// Enable starts attribution at the current ledger reading, discarding
// anything previously collected.
func (p *Phases) Enable(opt Options) {
	p.enabled = true
	p.depth = 0
	p.cycles = [NumPhases]clock.Cycles{}
	p.enters = [NumPhases]uint64{}
	p.taskIDs = [TaskSlots]uint32{}
	p.mmIDs = [TaskSlots]uint32{}
	p.taskCycles = [TaskSlots]clock.Cycles{}
	p.mmCycles = [TaskSlots]clock.Cycles{}
	p.curTask, p.curMM = 0, 0
	p.base = p.led.Now()
	p.mark = p.base
	p.interval = opt.SampleInterval
	p.taken, p.dropped = 0, 0
	if p.interval > 0 {
		capacity := opt.SampleCapacity
		if capacity <= 0 {
			capacity = DefaultSampleCapacity
		}
		if len(p.ring) != capacity {
			p.ring = make([]Sample, capacity)
		}
		p.next = p.base + p.interval
	}
}

// Restart discards collected data and restarts attribution at the
// current ledger reading with unchanged options. The machine's warm
// reboot calls it next to the counter reset, so phase-entry counts and
// hwmon deltas keep covering the same window. A disabled ledger stays
// disabled.
func (p *Phases) Restart() {
	if !p.enabled {
		return
	}
	p.Enable(Options{SampleInterval: p.interval, SampleCapacity: len(p.ring)})
}

// Enabled reports whether the ledger is attributing.
func (p *Phases) Enabled() bool { return p.enabled }

// current is the innermost phase (PhaseUser with an empty stack).
func (p *Phases) current() Phase {
	if p.depth == 0 {
		return PhaseUser
	}
	return p.stack[p.depth-1]
}

// accrue charges the cycles since the last mark to the current phase
// (and the current task/mm rows), then gives the sampler its shot.
func (p *Phases) accrue() {
	now := p.led.Now()
	d := now - p.mark
	p.mark = now
	p.cycles[p.current()] += d
	p.taskCycles[p.curTask%TaskSlots] += d
	p.mmCycles[p.curMM%TaskSlots] += d
	if p.interval != 0 && now >= p.next {
		p.sample(now)
	}
}

// sample snapshots state for the boundary just crossed and advances to
// the next boundary strictly after now — one sample per crossing, even
// when attribution points are sparse enough that several boundaries
// elapsed. Determinism: everything here is a function of the simulated
// charge sequence alone.
func (p *Phases) sample(now clock.Cycles) {
	boundary := p.next
	p.next += p.interval * ((now-p.next)/p.interval + 1)
	if p.taken >= len(p.ring) {
		p.dropped++
		return
	}
	s := &p.ring[p.taken]
	p.taken++
	s.Cycle = uint64(now)
	s.Boundary = uint64(boundary)
	s.Task = p.curTask
	s.MM = p.curMM
	s.TaskCycles = uint64(p.taskCycles[p.curTask%TaskSlots])
	s.MMCycles = uint64(p.mmCycles[p.curMM%TaskSlots])
	for i := range s.Phases {
		s.Phases[i] = uint64(p.cycles[i])
	}
	s.Counters = *p.mon
}

// Enter pushes a phase and returns the ledger reading it was entered
// at. Callers outside this package go through the machine's tracer
// (mmtrace's Enter and the typed entering calls), whose token the
// phasebalance analyzer pins to a deferred exit.
func (p *Phases) Enter(ph Phase) clock.Cycles {
	if p.enabled {
		p.accrue()
		if p.depth == MaxDepth {
			p.tripDepth(ph)
		}
		p.stack[p.depth] = ph
		p.depth++
		p.enters[ph]++
	}
	return p.led.Now()
}

// Exit pops the innermost phase. Exits arriving with an empty stack
// (possible only by breaking the span discipline) panic.
func (p *Phases) Exit() {
	if !p.enabled {
		return
	}
	p.accrue()
	if p.depth == 0 {
		p.tripEmpty()
	}
	p.depth--
}

// Attribute transfers n just-charged cycles from the current phase to
// ph, counting one entry of ph. It is the span equivalent for the
// allocation-free paths (translation, cache fills) where a deferred
// exit cannot go: the caller charges the ledger, then immediately
// attributes the charge — with no phase transition possible in
// between, the n cycles are guaranteed to still sit in the current
// phase, so the transfer is exact and self-balancing (no Exit).
func (p *Phases) Attribute(ph Phase, n clock.Cycles) {
	if !p.enabled {
		return
	}
	p.accrue()
	cur := p.current()
	if p.cycles[cur] < n {
		p.tripTransfer(cur, ph, n)
	}
	p.cycles[cur] -= n
	p.cycles[ph] += n
	p.enters[ph]++
}

// SetTask names the task and address space subsequent cycles are
// attributed to; the kernel calls it (through the tracer's SetTask)
// on every context switch.
func (p *Phases) SetTask(pid, mm uint32) {
	if !p.enabled {
		return
	}
	p.accrue()
	p.curTask, p.curMM = pid, mm
	p.taskIDs[pid%TaskSlots] = pid
	p.mmIDs[mm%TaskSlots] = mm
}

// Sync accrues up to the present so the totals read exactly. Readers
// (conservation checks, report columns, recordings) call it first.
func (p *Phases) Sync() {
	if p.enabled {
		p.accrue()
	}
}

// CheckConservation verifies the hard identity behind every number this
// package reports: base + sum(phase cycles) == clock.Now, exactly. It
// tolerates being called mid-phase (the machine-check handler runs the
// consistency sweep from inside its own span).
func (p *Phases) CheckConservation() error {
	if !p.enabled {
		return nil
	}
	p.accrue()
	var sum clock.Cycles
	for _, c := range p.cycles {
		sum += c
	}
	if now := p.led.Now(); p.base+sum != now {
		return fmt.Errorf("telemetry: phase conservation violated: base %d + attributed %d != clock now %d (drift %+d)",
			p.base, sum, now, int64(p.base+sum)-int64(now))
	}
	return nil
}

// Skew perturbs one phase's cycle total by d. It exists solely so the
// conservation-identity corruption tests can prove CheckConservation
// trips on a single-cycle under- or over-count; nothing else may call
// it.
func (p *Phases) Skew(ph Phase, d int64) {
	p.cycles[ph] = clock.Cycles(int64(p.cycles[ph]) + d)
}

// tripDepth, tripEmpty and tripTransfer raise the structural
// watchdogs. Kept out of the hot paths so those stay allocation-free;
// each runs at most once per ledger lifetime.
func (p *Phases) tripDepth(ph Phase) {
	panic(fmt.Sprintf("telemetry: phase stack overflow entering %v (depth %d)", ph, p.depth))
}

func (p *Phases) tripEmpty() {
	panic(fmt.Sprintf("telemetry: phase exit with empty stack at cycle %d", p.led.Now()))
}

func (p *Phases) tripTransfer(cur, ph Phase, n clock.Cycles) {
	panic(fmt.Sprintf("telemetry: cannot transfer %d cycles from %v (holding %d) to %v", n, cur, p.cycles[cur], ph))
}

// Cycles returns the cycles attributed to a phase so far (Sync first
// for an exact instant reading).
func (p *Phases) Cycles(ph Phase) clock.Cycles { return p.cycles[ph] }

// Enters returns how many times a phase was entered.
func (p *Phases) Enters(ph Phase) uint64 { return p.enters[ph] }

// Total returns all attributed cycles, accrued to the present.
func (p *Phases) Total() clock.Cycles {
	p.Sync()
	var t clock.Cycles
	for _, c := range p.cycles {
		t += c
	}
	return t
}

// Fraction returns a phase's share of total attributed cycles.
func (p *Phases) Fraction(ph Phase) float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.cycles[ph]) / float64(t)
}

// String renders the flat profile.
func (p *Phases) String() string {
	var b strings.Builder
	t := p.Total()
	if t == 0 {
		t = 1
	}
	for _, ph := range AllPhases {
		fmt.Fprintf(&b, "%-14s %12d cycles %6.2f%%\n", ph, p.cycles[ph],
			100*float64(p.cycles[ph])/float64(t))
	}
	return b.String()
}

// Samples returns a copy of the recorded samples, oldest first.
func (p *Phases) Samples() []Sample {
	out := make([]Sample, p.taken)
	copy(out, p.ring[:p.taken])
	return out
}

// Dropped returns how many boundary crossings arrived after the ring
// filled.
func (p *Phases) Dropped() uint64 { return p.dropped }

// Interval returns the sampler period (0: sampling disabled).
func (p *Phases) Interval() clock.Cycles { return p.interval }

// Base returns the ledger reading attribution started at.
func (p *Phases) Base() clock.Cycles { return p.base }

// AttrRow is one per-task or per-mm attribution row.
type AttrRow struct {
	ID     uint32
	Cycles uint64
}

// TaskAttribution returns the non-empty per-task cycle rows in ID
// order.
func (p *Phases) TaskAttribution() []AttrRow {
	return attrRows(&p.taskIDs, &p.taskCycles)
}

// MMAttribution returns the non-empty per-mm cycle rows in ID order.
func (p *Phases) MMAttribution() []AttrRow {
	return attrRows(&p.mmIDs, &p.mmCycles)
}

func attrRows(ids *[TaskSlots]uint32, cycles *[TaskSlots]clock.Cycles) []AttrRow {
	var out []AttrRow
	for i := range cycles {
		if cycles[i] > 0 {
			out = append(out, AttrRow{ID: ids[i], Cycles: uint64(cycles[i])})
		}
	}
	// Slots are ID mod TaskSlots; an insertion sort keeps the package
	// dependency-light and the row count is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
