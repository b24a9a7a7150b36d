package kernel

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/telemetry"
)

// Flush-path instruction lengths.
const (
	flushPageInstr    = 40  // per-page flush routine
	flushRangeInstr   = 60  // range-flush loop setup
	flushContextInstr = 120 // lazy: new context + segment reload
)

// flushPage removes one page's translation from the TLB and the hash
// table. The hash-table half is the expensive part: a search of up to
// 16 PTEs (§7).
func (k *Kernel) flushPage(t *Task, ea arch.EffectiveAddr) {
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseFlush))
	start := k.M.Led.Now()
	k.kexec(textFlush, flushPageInstr)
	vpn := arch.VPNOf(t.Segs[ea.SegIndex()], ea)
	k.M.MMU.InvalidateVPNAll(vpn)
	if k.usesHTAB() {
		_, accesses := k.M.MMU.HTAB.FlushVPN(vpn, k.M)
		k.M.Mon.HTABFlushSearches += uint64(accesses)
	}
	k.M.Trc.FlushPage(vpn.VSID(), ea, k.M.Led.Now()-start)
}

// flushRange removes the translations for [start, start+pages*4K). The
// original kernel walked the whole address range, searching the hash
// table for every page in turn — even pages that were never mapped —
// which is what made mmap() cost milliseconds. With a cutoff
// configured (§7), ranges bigger than the cutoff are converted to a
// whole-context flush whose amortized cost is far lower.
func (k *Kernel) flushRange(t *Task, start arch.EffectiveAddr, pages int) {
	if k.cfg.FlushRangeCutoff > 0 && pages > k.cfg.FlushRangeCutoff {
		// The §7 cutoff decision: this range is big enough that a
		// whole-context flush is cheaper than page-by-page searches.
		// The cutoff path opens no flush span of its own — its event
		// is free and counts nothing, and flushContext below counts the
		// one flush that actually happens, keeping span entries 1:1
		// with the flush counters.
		k.M.Trc.FlushCutoff(t.Segs[start.SegIndex()], start, uint32(pages))
		k.flushContext(t)
		return
	}
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseFlush))
	begin := k.M.Led.Now()
	k.kexec(textFlush+0x200, flushRangeInstr)
	for i := 0; i < pages; i++ {
		k.flushPage(t, start+arch.EffectiveAddr(i*arch.PageSize))
	}
	k.M.Trc.FlushRange(t.Segs[start.SegIndex()], start, k.M.Led.Now()-begin, uint32(pages))
}

// flushContext removes every translation belonging to t.
//
// Lazy mode (§7): retire the task's VSIDs, allocate a fresh context and
// reload the segment registers. Old PTEs in the TLB and hash table stay
// "valid" but can never match — they are zombies for the idle task to
// reclaim.
//
// Eager mode: walk every page the task has mapped and hunt its PTE down
// in the hash table (up to 16 accesses each), then invalidate the TLB.
func (k *Kernel) flushContext(t *Task) {
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhaseFlush))
	// The flushed VSID names the context being destroyed (lazy mode
	// replaces t.Segs before returning).
	oldVSID := t.Segs[0]
	start := k.M.Led.Now()
	if k.cfg.LazyFlush {
		k.kexec(textFlush+0x400, flushContextInstr)
		k.kdata(dataMMContext, 64)
		k.ctx.Retire(t.Ctx)
		k.newContext(t)
		if t == k.cur {
			k.loadSegments(t)
		}
		k.M.Trc.FlushContext(oldVSID, k.M.Led.Now()-start, t.PID)
		return
	}
	k.kexec(textFlush+0x400, flushRangeInstr)
	for _, r := range t.regions {
		var pagesToFlush []arch.EffectiveAddr
		t.PT.Range(r.Start, r.End(), func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
			pagesToFlush = append(pagesToFlush, ea)
			return true
		})
		for _, ea := range pagesToFlush {
			k.flushPage(t, ea)
		}
	}
	k.M.MMU.InvalidateTLBs()
	k.M.Trc.FlushContext(oldVSID, k.M.Led.Now()-start, t.PID)
}

// FlushTaskContext flushes every translation of the current task — the
// flush_tlb_mm entry point, exported for experiments and tools.
func (k *Kernel) FlushTaskContext() {
	if k.cur == nil {
		panic("kernel: FlushTaskContext with no current task")
	}
	k.flushContext(k.cur)
}

// loadSegments programs the user segment registers (0..11) from the
// task's VSID image; the kernel segments are fixed.
func (k *Kernel) loadSegments(t *Task) {
	for seg := 0; seg < 12; seg++ {
		k.M.MMU.SetSegment(seg, t.Segs[seg])
	}
	k.M.Led.Charge(clock.Cycles(12)) // mtsr is one cycle per register
}
