package mmtrace

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
)

// The typed event calls below are the simulator's one instrumentation
// point. Each bumps the hwmon counters its event stands for, then
// records the event when tracing is on, so a counter and its
// histogram cannot drift apart: there is no other way to record an
// event that has a counter. Call sites sit where the operation
// completes (after its cost is charged), so a counter moves at the
// event's timestamp and a sampled counter file agrees with the ring at
// every instant. Counters with no event (TLBHits, Syscalls, ...) stay
// plain increments at their sites.
//
// Disabled, a call is its counter bumps plus one predictable branch.
// Every call is small enough to inline; the branch is written out in
// each rather than shared through a helper, whose inlined cost would
// push the two-counter calls past the inliner's budget.

// TLBMiss: a translation missed the TLB. Bumps TLBMisses.
//
//mmutricks:noalloc
func (t *Tracer) TLBMiss(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.TLBMisses++
	if t.enabled {
		t.record(KindTLBMiss, vs, ea, cost, 0)
	}
}

// TLBInsert: a translation was loaded into a TLB.
//
//mmutricks:noalloc
func (t *Tracer) TLBInsert(vs arch.VSID, ea arch.EffectiveAddr) {
	if t.enabled {
		t.record(KindTLBInsert, vs, ea, 0, 0)
	}
}

// TLBEvict: a TLB insert displaced a valid entry.
//
//mmutricks:noalloc
func (t *Tracer) TLBEvict(vs arch.VSID, ea arch.EffectiveAddr) {
	if t.enabled {
		t.record(KindTLBEvict, vs, ea, 0, 0)
	}
}

// HTABHitPrimary: a hash-table search hit in the primary bucket.
// Bumps HTABHits and HTABPrimaryHits.
//
//mmutricks:noalloc
func (t *Tracer) HTABHitPrimary(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.HTABHits++
	t.mon.HTABPrimaryHits++
	if t.enabled {
		t.record(KindHTABHitPrimary, vs, ea, cost, 0)
	}
}

// HTABHitSecondary: a hash-table search hit in the secondary bucket.
// Bumps HTABHits.
//
//mmutricks:noalloc
func (t *Tracer) HTABHitSecondary(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.HTABHits++
	if t.enabled {
		t.record(KindHTABHitSecondary, vs, ea, cost, 0)
	}
}

// HTABMiss: the 603's software hash search matched neither bucket.
// Bumps HTABMisses.
//
//mmutricks:noalloc
func (t *Tracer) HTABMiss(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.HTABMisses++
	if t.enabled {
		t.record(KindHTABMiss, vs, ea, cost, 0)
	}
}

// HashMissRaised: the 604's hardware search matched neither bucket
// and raised the hash-miss interrupt. Bumps HTABMisses and
// HashMissFaults; the handler's HashMissHandled event follows.
//
//mmutricks:noalloc
func (t *Tracer) HashMissRaised(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.HTABMisses++
	t.mon.HashMissFaults++
	if t.enabled {
		t.record(KindHTABMiss, vs, ea, cost, 0)
	}
}

// HashMissHandled: the 604 hash-miss handler finished. Its counter
// moved at the raise (HashMissRaised), so the hashmiss-fault
// reconciliation row checks that every raised miss was handled.
//
//mmutricks:noalloc
func (t *Tracer) HashMissHandled(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	if t.enabled {
		t.record(KindHashMissFault, vs, ea, cost, 0)
	}
}

// SoftReload: the 603 software TLB reload finished. Bumps
// SoftwareReloads.
//
//mmutricks:noalloc
func (t *Tracer) SoftReload(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.SoftwareReloads++
	if t.enabled {
		t.record(KindSoftReload, vs, ea, cost, 0)
	}
}

// HTABInsertFree: a PTE went into a free hash-table slot. Bumps
// HTABInserts and HTABFreeSlot.
//
//mmutricks:noalloc
func (t *Tracer) HTABInsertFree(vs arch.VSID, cost clock.Cycles) {
	t.mon.HTABInserts++
	t.mon.HTABFreeSlot++
	if t.enabled {
		t.record(KindHTABInsertFree, vs, 0, cost, 0)
	}
}

// HTABEvictLive: a PTE displaced a live one. Bumps HTABInserts and
// HTABEvictsValid.
//
//mmutricks:noalloc
func (t *Tracer) HTABEvictLive(vs arch.VSID, cost clock.Cycles) {
	t.mon.HTABInserts++
	t.mon.HTABEvictsValid++
	if t.enabled {
		t.record(KindHTABEvictLive, vs, 0, cost, 0)
	}
}

// HTABEvictZombie: a PTE displaced a zombie. Bumps HTABInserts and
// HTABEvictsZombie.
//
//mmutricks:noalloc
func (t *Tracer) HTABEvictZombie(vs arch.VSID, cost clock.Cycles) {
	t.mon.HTABInserts++
	t.mon.HTABEvictsZombie++
	if t.enabled {
		t.record(KindHTABEvictZombie, vs, 0, cost, 0)
	}
}

// OnDemandScan: an insert swept the whole table for zombies. Bumps
// OnDemandScans, and ZombiesReclaimed by reclaimed.
//
//mmutricks:noalloc
func (t *Tracer) OnDemandScan(vs arch.VSID, cost clock.Cycles, reclaimed uint32) {
	t.mon.OnDemandScans++
	t.mon.ZombiesReclaimed += uint64(reclaimed)
	if t.enabled {
		t.record(KindOnDemandScan, vs, 0, cost, reclaimed)
	}
}

// MinorFault: a page fault resolved without allocating. Bumps
// MinorFaults.
//
//mmutricks:noalloc
func (t *Tracer) MinorFault(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.MinorFaults++
	if t.enabled {
		t.record(KindMinorFault, vs, ea, cost, 0)
	}
}

// MajorFault: a page fault allocated (or swapped in) a page. Bumps
// MajorFaults.
//
//mmutricks:noalloc
func (t *Tracer) MajorFault(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.MajorFaults++
	if t.enabled {
		t.record(KindMajorFault, vs, ea, cost, 0)
	}
}

// FlushPage: one page's translation was flushed. Bumps FlushPage.
//
//mmutricks:noalloc
func (t *Tracer) FlushPage(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.FlushPage++
	if t.enabled {
		t.record(KindFlushPage, vs, ea, cost, 0)
	}
}

// FlushRange: a range of pages was flushed page by page. Bumps
// FlushRange.
//
//mmutricks:noalloc
func (t *Tracer) FlushRange(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles, pages uint32) {
	t.mon.FlushRange++
	if t.enabled {
		t.record(KindFlushRange, vs, ea, cost, pages)
	}
}

// FlushCutoff: a range flush of pages pages crossed the §7 cutoff and
// became a context flush (which counts itself).
//
//mmutricks:noalloc
func (t *Tracer) FlushCutoff(vs arch.VSID, ea arch.EffectiveAddr, pages uint32) {
	if t.enabled {
		t.record(KindFlushCutoff, vs, ea, 0, pages)
	}
}

// FlushContext: every translation of task pid was flushed. Bumps
// FlushContext.
//
//mmutricks:noalloc
func (t *Tracer) FlushContext(vs arch.VSID, cost clock.Cycles, pid uint32) {
	t.mon.FlushContext++
	if t.enabled {
		t.record(KindFlushContext, vs, 0, cost, pid)
	}
}

// VSIDReassign: a task received context ctx's VSIDs.
//
//mmutricks:noalloc
func (t *Tracer) VSIDReassign(vs arch.VSID, ctx uint32) {
	if t.enabled {
		t.record(KindVSIDReassign, vs, 0, 0, ctx)
	}
}

// CtxSwitch: a context switch to task pid finished. Bumps CtxSwitches.
//
//mmutricks:noalloc
func (t *Tracer) CtxSwitch(vs arch.VSID, cost clock.Cycles, pid uint32) {
	t.mon.CtxSwitches++
	if t.enabled {
		t.record(KindCtxSwitch, vs, 0, cost, pid)
	}
}

// IdleReclaim: an idle-task sweep invalidated reclaimed zombie PTEs.
// Bumps ZombiesReclaimed by reclaimed.
//
//mmutricks:noalloc
func (t *Tracer) IdleReclaim(cost clock.Cycles, reclaimed uint32) {
	t.mon.ZombiesReclaimed += uint64(reclaimed)
	if t.enabled {
		t.record(KindIdleReclaim, 0, 0, cost, reclaimed)
	}
}

// PageZero: the idle task cleared the frame at pa. Bumps
// IdlePagesCleared.
//
//mmutricks:noalloc
func (t *Tracer) PageZero(pa arch.PhysAddr, cost clock.Cycles) {
	t.mon.IdlePagesCleared++
	if t.enabled {
		t.record(KindPageZero, 0, arch.EffectiveAddr(pa), cost, 0)
	}
}

// SwapOut: a page went to the swap device. Bumps SwapOuts.
//
//mmutricks:noalloc
func (t *Tracer) SwapOut(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.SwapOuts++
	if t.enabled {
		t.record(KindSwapOut, vs, ea, cost, 0)
	}
}

// SwapIn: a page came back from the swap device. Bumps SwapIns.
//
//mmutricks:noalloc
func (t *Tracer) SwapIn(vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles) {
	t.mon.SwapIns++
	if t.enabled {
		t.record(KindSwapIn, vs, ea, cost, 0)
	}
}

// CacheFill: an access to pa paid a fill from memory (or went around
// the cache); class is the cache traffic class.
//
//mmutricks:noalloc
func (t *Tracer) CacheFill(pa arch.PhysAddr, cost clock.Cycles, class uint32) {
	if t.enabled {
		t.record(KindCacheFill, 0, arch.EffectiveAddr(pa), cost, class)
	}
}

// MachineCheck: a machine check reporting pa with the given
// faultinject cause was taken. Bumps MachineChecks; exactly one
// outcome call follows.
//
//mmutricks:noalloc
func (t *Tracer) MachineCheck(pa arch.PhysAddr, cost clock.Cycles, cause uint32) {
	t.mon.MachineChecks++
	if t.enabled {
		t.record(KindMachineCheck, 0, arch.EffectiveAddr(pa), cost, cause)
	}
}

// MCRepairTLB: the handler invalidated a poisoned TLB entry. Bumps
// MCRepairsTLB.
//
//mmutricks:noalloc
func (t *Tracer) MCRepairTLB(vs arch.VSID, cost clock.Cycles) {
	t.mon.MCRepairsTLB++
	if t.enabled {
		t.record(KindMCRepairTLB, vs, 0, cost, 0)
	}
}

// MCRepairHTAB: the handler invalidated the poisoned hash-table slot
// at pa. Bumps MCRepairsHTAB.
//
//mmutricks:noalloc
func (t *Tracer) MCRepairHTAB(vs arch.VSID, pa arch.PhysAddr, cost clock.Cycles) {
	t.mon.MCRepairsHTAB++
	if t.enabled {
		t.record(KindMCRepairHTAB, vs, arch.EffectiveAddr(pa), cost, 0)
	}
}

// MCRepairBAT: the handler reprogrammed the BATs. Bumps MCRepairsBAT.
//
//mmutricks:noalloc
func (t *Tracer) MCRepairBAT(pa arch.PhysAddr, cost clock.Cycles) {
	t.mon.MCRepairsBAT++
	if t.enabled {
		t.record(KindMCRepairBAT, 0, arch.EffectiveAddr(pa), cost, 0)
	}
}

// MCRepairCache: the handler invalidated the poisoned cache line at
// pa. Bumps MCRepairsCache.
//
//mmutricks:noalloc
func (t *Tracer) MCRepairCache(pa arch.PhysAddr, cost clock.Cycles) {
	t.mon.MCRepairsCache++
	if t.enabled {
		t.record(KindMCRepairCache, 0, arch.EffectiveAddr(pa), cost, 0)
	}
}

// MCEscalate: unrepairable poison at ea killed task pid. Bumps
// MCEscalations.
//
//mmutricks:noalloc
func (t *Tracer) MCEscalate(ea arch.EffectiveAddr, cost clock.Cycles, pid uint32) {
	t.mon.MCEscalations++
	if t.enabled {
		t.record(KindMCEscalate, 0, ea, cost, pid)
	}
}

// MCSpurious: a machine check reporting pa found nothing wrong. Bumps
// MCSpurious.
//
//mmutricks:noalloc
func (t *Tracer) MCSpurious(pa arch.PhysAddr, cost clock.Cycles) {
	t.mon.MCSpurious++
	if t.enabled {
		t.record(KindMCSpurious, 0, arch.EffectiveAddr(pa), cost, 0)
	}
}
