package telemetry

import "mmutricks/internal/hwmon"

// ReconcileRow compares one phase's entry count against the hwmon
// counter expression that should equal it.
type ReconcileRow struct {
	// Name labels the comparison (the phase name, with the counter
	// expression when it is a sum).
	Name string
	// Enters is the phase's entry count from the ledger.
	Enters uint64
	// Counter is the hwmon.Counters expression for the same window.
	Counter uint64
	// OK reports Enters == Counter.
	OK bool
}

// Reconcile cross-checks the ledger's phase-entry counts against a
// hwmon.Counters delta covering the same window — the mmtrace.Reconcile
// treatment applied to phases. Every phase entry point in the kernel
// sits next to exactly one counter increment, so each row is an exact
// identity; a mismatch means a span and its counter have drifted apart.
// Where one typed tracer call both enters the phase and bumps the
// counter (syscall, idle, idle-reclaim, the kthread half of
// ctx-switch), the row holds by construction; it stays because the
// telemetry-phases report prints the row count.
//
// PhaseUser, PhaseFetch and PhaseFault carry no row: user is the stack
// floor (never "entered"), fetch transfers happen per cache fill (no
// dedicated counter — a fill may belong to data or instruction
// traffic), and fault entries deliberately exceed MinorFaults +
// MajorFaults (a protection fault that delivers a signal resolves
// without either counter).
func Reconcile(p *Phases, c *hwmon.Counters) []ReconcileRow {
	row := func(name string, ph Phase, counter uint64) ReconcileRow {
		return ReconcileRow{Name: name, Enters: p.enters[ph], Counter: counter, OK: p.enters[ph] == counter}
	}
	return []ReconcileRow{
		row("tlb-miss (sw+hashmiss+walks)", PhaseTLBMiss, c.SoftwareReloads+c.HashMissFaults+c.HardwareWalks),
		row("syscall", PhaseSyscall, c.Syscalls),
		row("flush (page+range+context)", PhaseFlush, c.FlushPage+c.FlushRange+c.FlushContext),
		row("ctx-switch (+kthread-mm)", PhaseCtxSwitch, c.CtxSwitches+c.KthreadMMSwitches),
		row("idle-reclaim", PhaseIdleReclaim, c.IdleScans),
		row("pre-zero", PhasePreZero, c.IdlePagesCleared),
		row("swap (out+in)", PhaseSwap, c.SwapOuts+c.SwapIns),
		row("mc-repair", PhaseMCRepair, c.MachineChecks),
		row("idle", PhaseIdle, c.IdleWaits),
	}
}
