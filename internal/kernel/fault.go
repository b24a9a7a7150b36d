package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/ppc"
	"mmutricks/internal/telemetry"
)

// Instruction-path lengths of the fault handlers. The fast handlers are
// the §6.1 rewrite: assembly, MMU off, only the four swapped-in scratch
// registers, hand-scheduled. The original path saves full state, turns
// the MMU on and runs C.
const (
	fastMissInstr    = 24  // hand-optimized reload path
	cMissSaveInstr   = 150 // original state save / MMU enable / dispatch
	cMissBodyInstr   = 90  // original C search body
	cMissRegBytes    = 128 // 32 GPRs saved to the task struct
	hashInsertInstr  = 40  // build + store a hash-table PTE
	softSearchPerPTE = 3   // software compare cost per PTE examined (603)
	pageFaultInstr   = 400 // do_page_fault C path
	getFreeInstr     = 60  // get_free_page
)

// fetchPhysText fetches handler instructions physically (the PowerPC
// turns off memory management on an interrupt and the handlers run at
// their physical vector addresses).
func (k *Kernel) fetchPhysText(off uint32, n int) {
	k.M.Led.Charge(clock.Cycles(n))
	line := k.M.LineSize()
	instrPerLine := line / 4
	lines := (n + instrPerLine - 1) / instrPerLine
	k.M.FetchRun(k.textPA+arch.PhysAddr(off), lines, line, cache.ClassKernelText, false)
}

// handlerOverhead charges the fixed part of a software fault handler:
// interrupt entry/exit plus either the tiny assembly path or the
// original save-state-and-call-C path.
func (k *Kernel) handlerOverhead() {
	k.M.Led.Charge(clock.Cycles(k.M.Model.MissHandlerEntry))
	if k.cfg.FastReload {
		k.fetchPhysText(textFastMiss, fastMissInstr)
		return
	}
	// Original path: a physical stub saves state and enables the MMU,
	// then the C body runs translated, touching the task struct. A
	// miss taken *inside* a handler (nested: the C body's own text) is
	// serviced by the stub at its physical address, like the real
	// vector code — otherwise the body fetch would recurse forever.
	k.fetchPhysText(textCMissSave, cMissSaveInstr)
	if t := k.cur; t != nil {
		k.kdataDirect(dataTaskStructs+t.slotOff(), cMissRegBytes, true)
	}
	if k.faultDepth > 1 {
		k.fetchPhysText(textCMissBody, cMissBodyInstr)
		return
	}
	k.kexecHandler(textCMissBody, cMissBodyInstr)
}

// kexecHandler fetches handler-body text through translation, like
// kexec, but is safe to call from inside the fault path (recursion is
// bounded because kernel-text misses resolve via the linear mapping).
func (k *Kernel) kexecHandler(off uint32, n int) {
	k.M.Led.Charge(clock.Cycles(n))
	line := uint32(k.M.LineSize())
	instrPerLine := line / 4
	lines := (uint32(n) + instrPerLine - 1) / instrPerLine
	base := uint32(kvirt(k.textPA)) + off
	k.AccessRun(k.cur, Run{
		EA: arch.EffectiveAddr(base), Count: int(lines), Stride: int(line),
		Class: cache.ClassKernelText, Instr: true,
	})
}

// kdataDirect performs kernel-data accesses physically (handlers with
// the MMU off address the task struct by physical address).
func (k *Kernel) kdataDirect(off uint32, nbytes int, write bool) {
	line := k.M.LineSize()
	base := k.dataPA + arch.PhysAddr(off)
	k.M.MemAccessRun(base, (nbytes+line-1)/line, line, cache.ClassKernelData, false, write)
}

// handleFault services a TLB miss (603) or hash-table miss (604).
func (k *Kernel) handleFault(t *Task, ea arch.EffectiveAddr, r ppc.Result, instr bool) {
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseTLBMiss))
	k.faultDepth++
	defer func() { k.faultDepth-- }()
	if k.faultDepth > 6 {
		panic(fmt.Sprintf("kernel: fault recursion at %v", ea))
	}
	// The reload handlers walk the very structures the injector
	// corrupts; poisoning them mid-reload would model a second fault
	// arriving inside the handler, which the hardware holds off.
	k.M.Inj.Suspend()
	defer k.M.Inj.Resume()

	// The handler events carry the whole software path as their cost
	// (entry, search, page fault if one nests, insert); the MMU's own
	// tlb-miss event marks where the miss happened.
	start := k.M.Led.Now()
	switch r.Fault {
	case ppc.FaultTLBMiss:
		k.handlerOverhead()
		k.reload603(t, ea, r.VPN, instr)
		k.M.Trc.SoftReload(r.VPN.VSID(), ea, k.M.Led.Now()-start)
	case ppc.FaultHashMiss:
		// The MMU already charged the >=91-cycle interrupt cost.
		k.handlerOverhead()
		k.reload604(t, ea, r.VPN)
		k.M.Trc.HashMissHandled(r.VPN.VSID(), ea, k.M.Led.Now()-start)
	default:
		panic("kernel: unknown fault")
	}
}

// reload603 is the software TLB reload (the 603 lets software write the
// TLB directly). Depending on configuration it searches the hash table
// first (the databook's 604 emulation) or goes straight to the Linux
// page-table tree (§6.2, "improving hash tables away").
func (k *Kernel) reload603(t *Task, ea arch.EffectiveAddr, vpn arch.VPN, instr bool) {
	tlb := k.M.MMU.TLBFor(instr)
	if ea.IsKernel() {
		if rpn, ok := k.ioLinear(ea); ok {
			// Kernel I/O window: cache-inhibited device space.
			if k.cfg.UseHTAB {
				k.htabInsert(vpn, rpn, true)
			}
			tlb.Insert(vpn, rpn, true, true)
			return
		}
		rpn, ok := k.kernelLinear(ea)
		if !ok {
			panic(fmt.Sprintf("kernel: bad kernel address %v", ea))
		}
		if k.cfg.UseHTAB {
			// The original port kept kernel PTEs in the hash table —
			// the footprint §5.1 eliminates. Search, insert on miss.
			if pte := k.softSearch(vpn); pte != nil {
				tlb.Insert(vpn, pte.RPN(), pte.Inhibited(), true)
				return
			}
			k.htabInsert(vpn, rpn, false)
		}
		tlb.Insert(vpn, rpn, false, true)
		return
	}

	if k.cfg.UseHTAB {
		if pte := k.softSearch(vpn); pte != nil {
			tlb.Insert(vpn, pte.RPN(), pte.Inhibited(), false)
			return
		}
	}
	e, ok := k.treeWalk(t, ea)
	if !ok {
		k.pageFault(t, ea)
		if e, ok = k.treeWalk(t, ea); !ok {
			panic(fmt.Sprintf("kernel: page fault did not map %v", ea))
		}
	}
	if k.cfg.UseHTAB {
		k.htabInsert(vpn, e.RPN(), e.Inhibited())
	}
	tlb.Insert(vpn, e.RPN(), e.Inhibited(), false)
}

// reload604 services the 604's hash-table miss interrupt: find the PTE
// in the Linux tree and install it in the hash table. The hardware
// walks the table again when the access retries (the 604 does not let
// software touch the TLB).
func (k *Kernel) reload604(t *Task, ea arch.EffectiveAddr, vpn arch.VPN) {
	if ea.IsKernel() {
		if rpn, ok := k.ioLinear(ea); ok {
			k.htabInsert(vpn, rpn, true)
			return
		}
		rpn, ok := k.kernelLinear(ea)
		if !ok {
			panic(fmt.Sprintf("kernel: bad kernel address %v", ea))
		}
		k.htabInsert(vpn, rpn, false)
		return
	}
	e, ok := k.treeWalk(t, ea)
	if !ok {
		k.pageFault(t, ea)
		if e, ok = k.treeWalk(t, ea); !ok {
			panic(fmt.Sprintf("kernel: page fault did not map %v", ea))
		}
	}
	k.htabInsert(vpn, e.RPN(), e.Inhibited())
}

// kernelLinear translates a kernel effective address through the linear
// mapping. No loads are needed; the translation is arithmetic.
func (k *Kernel) kernelLinear(ea arch.EffectiveAddr) (arch.PFN, bool) {
	pa := uint32(ea) - uint32(KernelVirtBase)
	if int(pa) >= k.M.Mem.Frames()*arch.PageSize {
		return 0, false
	}
	return arch.PhysAddr(pa).Frame(), true
}

// softSearch is the 603's software emulation of the 604 hardware hash
// search, charging the per-PTE compare cost plus the table's memory
// traffic. It maintains the same hit counters the 604 hardware does.
func (k *Kernel) softSearch(vpn arch.VPN) *arch.PTE {
	start := k.M.Led.Now()
	pte, primary, accesses := k.M.MMU.HTAB.Search(vpn, k.M)
	k.M.Led.Charge(clock.Cycles(accesses * softSearchPerPTE))
	cost := k.M.Led.Now() - start
	if pte != nil {
		if primary {
			k.M.Trc.HTABHitPrimary(vpn.VSID(), 0, cost)
		} else {
			k.M.Trc.HTABHitSecondary(vpn.VSID(), 0, cost)
		}
	} else {
		k.M.Trc.HTABMiss(vpn.VSID(), 0, cost)
	}
	return pte
}

// htabInsert installs a PTE in the hash table, classifying what it
// displaced (§7's evict accounting).
func (k *Kernel) htabInsert(vpn arch.VPN, rpn arch.PFN, inhibited bool) {
	if k.cfg.OnDemandReclaim && k.cfg.LazyFlush && k.M.MMU.HTAB.BucketsFull(vpn) {
		// Space is scarce: stop the world and sweep the table for
		// zombies before inserting — the §7 first-draft design the
		// paper rejected because "performance would be inconsistent if
		// we had to occasionally scan the hash table". The unlucky
		// operation eats a full-table sweep.
		scanStart := k.M.Led.Now()
		_, n := k.M.MMU.HTAB.ReclaimScan(0, k.M.MMU.HTAB.Groups(), k.M, k)
		k.M.Trc.OnDemandScan(vpn.VSID(), k.M.Led.Now()-scanStart, uint32(n))
	}
	start := k.M.Led.Now()
	k.M.Led.Charge(hashInsertInstr)
	out, _ := k.M.MMU.HTAB.Insert(vpn, rpn, inhibited, k.M, k)
	cost := k.M.Led.Now() - start
	switch out {
	case ppc.InsertFreeSlot:
		k.M.Trc.HTABInsertFree(vpn.VSID(), cost)
	case ppc.InsertEvictLive:
		k.M.Trc.HTABEvictLive(vpn.VSID(), cost)
	case ppc.InsertEvictZombie:
		k.M.Trc.HTABEvictZombie(vpn.VSID(), cost)
	}
}

// treeWalk walks the Linux two-level page tables for t — the "three
// loads in the worst case" of §6.1: the task's page-directory pointer,
// the directory entry, and the PTE. A single fused descent of the tree
// yields both the entry and the addresses to charge.
func (k *Kernel) treeWalk(t *Task, ea arch.EffectiveAddr) (pagetable.Entry, bool) {
	if t == nil {
		panic(fmt.Sprintf("kernel: user access %v with no task", ea))
	}
	inh := k.ptInhibited()
	// Load 1: the mm/pgd pointer in the task struct.
	k.M.MemAccess(k.dataPA+arch.PhysAddr(dataTaskStructs+t.slotOff()), cache.ClassKernelData, false, false)
	e, pgdAddr, pteAddr, present := t.PT.Walk(ea)
	// Load 2: the page-directory entry.
	k.M.MemAccess(pgdAddr, cache.ClassPageTable, inh, false)
	if pteAddr == 0 {
		return 0, false
	}
	// Load 3: the PTE.
	k.M.MemAccess(pteAddr, cache.ClassPageTable, inh, false)
	return e, present
}

// pageFault is do_page_fault: demand paging for a valid region. An
// access outside every region is a simulation bug and panics (the
// workloads are well-behaved; there is no one to deliver SIGSEGV to).
func (k *Kernel) pageFault(t *Task, ea arch.EffectiveAddr) {
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseFault))
	start := k.M.Led.Now()
	k.kexecHandler(textPageFault, pageFaultInstr)
	k.kdataDirect(dataVMAs+t.slotOff()%0x1000, 64, false) // vma lookup
	reg := t.regionFor(ea)
	if reg == nil {
		panic(fmt.Sprintf("kernel: segfault: task %d at %v", t.PID, ea))
	}
	pageIdx := int(ea.PageBase()-reg.Start) / arch.PageSize
	minor := true
	switch reg.Kind {
	case RegionIO:
		// Device space: shared, cache-inhibited, nothing to allocate.
		k.mapPage(t, ea.PageBase(), reg.Backing[pageIdx], true)
	case RegionText:
		// File-backed text: the frame is already in the page cache.
		k.kdataDirect(dataPageCache, 64, false)
		k.mapPage(t, ea.PageBase(), reg.Backing[pageIdx], false)
	default:
		// Anonymous memory: swapped-out pages come back from the
		// device; fresh pages are demand-zero.
		minor = false
		var pfn arch.PFN
		if k.isSwapped(t, ea) {
			pfn = k.swapIn(t, ea)
		} else {
			pfn = k.getFreePageReclaim()
		}
		t.ownFrame(pfn)
		k.mapPage(t, ea.PageBase(), pfn, false)
	}
	if minor {
		k.M.Trc.MinorFault(t.Segs[ea.SegIndex()], ea, k.M.Led.Now()-start)
	} else {
		k.M.Trc.MajorFault(t.Segs[ea.SegIndex()], ea, k.M.Led.Now()-start)
	}
}

// mapPage installs a translation in the task's page tree, charging the
// two stores the update takes.
func (k *Kernel) mapPage(t *Task, ea arch.EffectiveAddr, pfn arch.PFN, inhibited bool) {
	if err := t.PT.Map(ea, pfn, inhibited); err != nil {
		panic(fmt.Sprintf("kernel: out of memory mapping %v for task %d", ea, t.PID))
	}
	pgdAddr, pteAddr, ok := t.PT.WalkAddrs(ea)
	inh := k.ptInhibited()
	k.M.MemAccess(pgdAddr, cache.ClassPageTable, inh, true)
	if ok {
		k.M.MemAccess(pteAddr, cache.ClassPageTable, inh, true)
	}
}

// getFreePage is get_free_page(): take a pre-cleared page if the idle
// task banked one (§9), otherwise allocate and clear synchronously —
// 4 KB of stores through the data cache.
func (k *Kernel) getFreePage() arch.PFN {
	k.kexecHandler(textGetFree, getFreeInstr)
	k.kdataDirect(dataRunQueue, 32, false) // the cleared-list check
	pfn, cleared, ok := k.M.Mem.GetFreePage()
	if !ok {
		panic("kernel: out of memory")
	}
	if cleared {
		k.M.Mon.ClearedPageHits++
		return pfn
	}
	if k.cfg.BzeroDCBZ {
		// bzero via dcbz: one cycle per line, no memory reads, maximal
		// cache pollution (§9's rejected bzero implementation).
		k.M.ZeroLineRun(pfn.Addr(), arch.PageSize/k.M.LineSize(), cache.ClassKernelData)
		return pfn
	}
	// Synchronous clear: one store per line over the whole page.
	k.kframe(pfn, 0, arch.PageSize, cache.ClassKernelData, true)
	return pfn
}
