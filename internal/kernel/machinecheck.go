package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/ppc"
	"mmutricks/internal/telemetry"
)

// Machine-check path instruction lengths. Like the other exception
// stubs, the machine-check vector runs physically (the 601..604 take
// machine checks with the MMU off), so every fetch here is a physical
// fetch of the handler text.
const (
	mcEntryInstr  = 200 // vector entry: save state, read SRR1/DSISR, classify
	mcRepairInstr = 80  // targeted repair: invalidate + re-fault bookkeeping
	mcSweepInstr  = 300 // spurious report: full software verification sweep

	// mcMaxPasses bounds the repair-verify loop: a poisoned entry that
	// survives this many invalidation attempts means the repair path
	// itself is broken, and the handler escalates by panicking (in the
	// simulator this is a bug, not a recoverable condition).
	mcMaxPasses = 3
)

// faultTick runs at the end of every top-level kernel access when a
// fault injector is attached: it gives the injector its chance to
// corrupt the software-owned structures (page-table ECC faults fire
// here, not inside the MMU) and then delivers any pending machine
// checks. Ticks inside the fault handlers or the machine-check handler
// itself are skipped — hardware holds machine checks until the
// processor can take them, and the simulator delivers them only at
// access boundaries of ordinary kernel work.
func (k *Kernel) faultTick(t *Task) {
	if k.faultDepth > 0 || k.inMC {
		return
	}
	inj := k.M.Inj
	n := inj.Fire(faultinject.SiteAccess)
	for i := 0; i < n; i++ {
		if kind, ok := inj.PickKind(faultinject.SiteAccess); ok && kind == faultinject.PTEFlip {
			k.injectPTEFlip(inj)
		}
	}
	for inj.HasMC() {
		p, _ := inj.TakeMC()
		k.machineCheck(p)
	}
}

// injectPTEFlip corrupts one RPN bit in the canonical page table of a
// deterministically chosen victim task. The current task is never the
// victim (its in-flight access must not land on the poison), and the
// corruption is only applied if the pending queue can report it — a
// fault the handler never hears about would silently break the
// applied-equals-handled audit.
func (k *Kernel) injectPTEFlip(inj *faultinject.Injector) {
	if inj.QueueFull() {
		inj.NoteSkipped(faultinject.PTEFlip)
		return
	}
	rnd := inj.Rand()
	var victim *Task
	for i := uint32(0); i < k.nextPID; i++ {
		pid := 1 + (uint32(rnd)+i)%k.nextPID
		t, ok := k.tasks[pid]
		if !ok || t == k.cur || t.State != TaskRunnable || t.PT == nil {
			continue
		}
		victim = t
		break
	}
	if victim == nil {
		inj.NoteSkipped(faultinject.PTEFlip)
		return
	}
	ea, ok := victim.PT.PickPresent(inj.Rand(), arch.KernelBase)
	if !ok {
		inj.NoteSkipped(faultinject.PTEFlip)
		return
	}
	pteAddr, ok := victim.PT.CorruptRPN(ea, 1)
	if !ok {
		inj.NoteSkipped(faultinject.PTEFlip)
		return
	}
	inj.Push(faultinject.Pending{
		Cause: faultinject.CausePTEECC,
		Addr:  pteAddr,
		PID:   victim.PID,
		EA:    ea,
	})
	inj.NoteApplied(faultinject.PTEFlip)
}

// machineCheck is the machine-check handler: classify the error report
// and dispatch the repair. Every delivery increments MachineChecks plus
// exactly one outcome counter, chosen purely by the reported cause, so
// the injector's applied counts and the monitor's outcome counts obey
// exact identities regardless of what the poison did in the meantime.
// The injector is suspended for the handler's duration (its own
// repair traffic must not fault-inject recursively).
func (k *Kernel) machineCheck(p faultinject.Pending) {
	inj := k.M.Inj
	inj.Suspend()
	defer inj.Resume()
	k.inMC = true
	defer func() { k.inMC = false }()

	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseMCRepair))
	start := k.M.Led.Now()
	k.fetchPhysText(textMC, mcEntryInstr)
	k.M.Trc.MachineCheck(p.Addr, k.M.Led.Now()-start, uint32(p.Cause))

	switch p.Cause {
	case faultinject.CauseTLBParity:
		k.mcRepairTLB(p)
	case faultinject.CauseHTABECC:
		k.mcRepairHTAB(p)
	case faultinject.CauseBATParity:
		k.mcRepairBAT(p)
	case faultinject.CauseCacheParity:
		k.mcRepairCache(p)
	case faultinject.CausePTEECC:
		k.mcEscalate(p)
	case faultinject.CauseSpurious:
		k.mcSpurious(p)
	default:
		panic(fmt.Sprintf("kernel: machine check with unknown cause %d", p.Cause))
	}
}

// tlbHolds reports whether any TLB array still has an entry for vpn.
func (k *Kernel) tlbHolds(vpn arch.VPN) bool {
	if _, ok := k.M.MMU.TLB.Peek(vpn); ok {
		return true
	}
	if k.M.MMU.ITLB != k.M.MMU.TLB {
		if _, ok := k.M.MMU.ITLB.Peek(vpn); ok {
			return true
		}
	}
	return false
}

// mcRepairTLB recovers from TLB parity poison: invalidate the reported
// translation everywhere and let the next access re-fault from the
// canonical page table. The repair is idempotent — if displacement
// already evicted the poisoned entry, the invalidation simply finds
// nothing. Verified (bounded) before the handler returns.
func (k *Kernel) mcRepairTLB(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcRepairInstr)
	for pass := 0; ; pass++ {
		if pass >= mcMaxPasses {
			panic(fmt.Sprintf("kernel: TLB repair of %#x not sticking", p.VPN))
		}
		k.M.MMU.InvalidateVPNAll(p.VPN)
		if !k.tlbHolds(p.VPN) {
			break
		}
	}
	k.M.Trc.MCRepairTLB(p.VPN.VSID(), k.M.Led.Now()-start)
}

// mcRepairHTAB recovers from hash-table ECC poison: invalidate the
// reported slot if it still holds the reported translation (an insert
// may have legitimately replaced it since), and flush the translation
// from the TLBs in case the corrupt PTE was already loaded. The next
// access re-faults and reinserts from the canonical page table.
func (k *Kernel) mcRepairHTAB(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcRepairInstr)
	if g, s, ok := k.M.MMU.HTAB.SlotOf(p.Addr); ok {
		for pass := 0; ; pass++ {
			if pass >= mcMaxPasses {
				panic(fmt.Sprintf("kernel: HTAB repair of slot %#x not sticking", p.Addr))
			}
			e := k.M.MMU.HTAB.ReadSlot(g, s)
			if !e.Valid() || e.VPN() != p.VPN {
				break
			}
			k.M.MMU.HTAB.InvalidateSlot(g, s, k.M)
		}
	}
	k.M.MMU.InvalidateVPNAll(p.VPN)
	k.M.Trc.MCRepairHTAB(p.VPN.VSID(), p.Addr, k.M.Led.Now()-start)
}

// canonicalBATs reconstructs what every BAT register should hold from
// the kernel's configuration — the same decisions boot, bootIO and
// loadFBBAT make. BAT contents are pure function of config plus the
// current task's frame-buffer mapping, which is what makes full
// reprogramming (rather than targeted bit repair) the natural recovery.
func (k *Kernel) canonicalBATs() (ibat, dbat [ppc.NumBATs]ppc.BATEntry) {
	if k.cfg.KernelBAT {
		ramLen := uint32(k.M.Mem.Frames() * arch.PageSize)
		e := ppc.BATEntry{Valid: true, Base: arch.KernelBase, Len: ramLen, Phys: 0}
		ibat[0], dbat[0] = e, e
	}
	if k.cfg.MapIOWithBAT {
		dbat[ioDBATSlot] = ppc.BATEntry{Valid: true, Base: KernelFBBase, Len: fbBytes, Phys: FBPhysBase, Inhibited: true}
	}
	if k.cfg.FBBAT && k.cur != nil && k.cur.fbMapped {
		dbat[fbDBATSlot] = ppc.BATEntry{Valid: true, Base: UserFBBase, Len: fbBytes, Phys: FBPhysBase, Inhibited: true}
	}
	return ibat, dbat
}

// mcRepairBAT recovers from BAT parity poison by reprogramming every
// BAT register from the canonical configuration. The poisoned register
// is not trusted even to identify itself — parity errors in the BAT
// array mean the whole array is suspect, and reconstructing all eight
// registers costs the same handful of mtspr instructions.
func (k *Kernel) mcRepairBAT(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcRepairInstr)
	ibat, dbat := k.canonicalBATs()
	for i := 0; i < ppc.NumBATs; i++ {
		if err := k.M.MMU.IBAT.Set(i, ibat[i]); err != nil {
			panic(fmt.Sprintf("kernel: BAT repair: %v", err))
		}
		if err := k.M.MMU.DBAT.Set(i, dbat[i]); err != nil {
			panic(fmt.Sprintf("kernel: BAT repair: %v", err))
		}
	}
	k.M.Led.Charge(2 * ppc.NumBATs) // mtspr upper/lower per register pair
	k.M.Trc.MCRepairBAT(p.Addr, k.M.Led.Now()-start)
}

// mcRepairCache recovers from a clean-line parity error: invalidate the
// line (dcbi) and let the next access refill it from memory. The line
// was clean, so no data is lost.
func (k *Kernel) mcRepairCache(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcRepairInstr)
	k.M.DCache.InvalidateLine(p.Addr)
	k.M.Led.Charge(1) // the dcbi itself
	k.M.Trc.MCRepairCache(p.Addr, k.M.Led.Now()-start)
}

// mcEscalate handles unrepairable corruption: ECC poison in a task's
// canonical page table cannot be repaired from any redundant copy, so
// the owning task is killed — the Unix answer to lost user state. The
// kernel itself survives; the dead task's translations and frames are
// torn down through the ordinary exit path.
func (k *Kernel) mcEscalate(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcRepairInstr)
	if t, ok := k.tasks[p.PID]; ok && t.State != TaskZombie {
		k.killTask(t)
	}
	k.M.Trc.MCEscalate(p.EA, k.M.Led.Now()-start, p.PID)
}

// killTask forcibly terminates a task from the machine-check handler.
// Unlike Exit it does not require the victim to be current, and it does
// not count as a voluntary exit.
func (k *Kernel) killTask(t *Task) {
	k.fetchPhysText(textProc+0x800, exitInstr)
	// Same mm protocol as Exit: if the victim is current, the CPU
	// keeps its space as a lazy-TLB borrow; either way the task's
	// user reference is dropped, and the final one (a kernel thread
	// may still hold the space via UseMM) runs the teardown. Refcount
	// and task state settle before the teardown traffic.
	m := t.mm
	borrow := k.cur == t
	t.mm = nil
	t.State = TaskZombie
	if borrow {
		k.mmGrab(m)
	}
	k.mmPut(m)
	if borrow {
		k.cur = nil
	}
}

// mcSpurious handles a machine check that reports no locatable error:
// the handler cannot just ignore it (the report may be the only hint of
// real corruption), so it runs the full software verification sweep —
// the same consistency invariants the test suite checks — and panics if
// the sweep finds anything. A clean sweep dismisses the report.
func (k *Kernel) mcSpurious(p faultinject.Pending) {
	start := k.M.Led.Now()
	k.fetchPhysText(textMC+0x400, mcSweepInstr)
	if err := k.CheckConsistency(); err != nil {
		panic(fmt.Sprintf("kernel: spurious machine check found real corruption: %v", err))
	}
	k.M.Trc.MCSpurious(p.Addr, k.M.Led.Now()-start)
}

// DrainMachineChecks delivers every pending machine check immediately.
// Harnesses call it after disarming the injector so that corruption
// applied by a site the kernel never ticked again (a bare Fetch, a
// physical access) is still repaired and audited before the final
// consistency check.
func (k *Kernel) DrainMachineChecks() {
	if k.M.Inj == nil {
		return
	}
	for k.M.Inj.HasMC() {
		p, _ := k.M.Inj.TakeMC()
		k.machineCheck(p)
	}
}
