package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/telemetry"
)

// Scheduler and idle-task instruction lengths.
const (
	schedInstr     = 420  // pick-next + hand-optimized switch_to (§6.1)
	schedSlowInstr = 1100 // original C path: full save/restore
	idlePollInstr  = 30   // one idle-loop iteration
	idleClearInstr = 20   // list push and bookkeeping per cleared page
	// idleReclaimGroups is how many hash-table groups one idle poll
	// sweeps. Small: the idle task must switch out quickly when work
	// arrives (§9: "we're only concerned with switching out of it
	// quickly").
	idleReclaimGroups = 8
)

// Switch performs a context switch to t: scheduler path, task-struct
// traffic, and the segment-register reload that gives t its address
// space.
func (k *Kernel) Switch(t *Task) {
	if t.State != TaskRunnable {
		panic(fmt.Sprintf("kernel: switch to non-runnable task %d", t.PID))
	}
	k.switchTo(t, true)
}

func (k *Kernel) switchTo(t *Task, charge bool) {
	if charge {
		// The event covers the whole switch (scheduler path, state
		// save/restore, segment reload) and names the incoming task.
		defer k.M.Trc.CtxSwitch(k.M.Trc.Enter(telemetry.PhaseCtxSwitch), &t.Segs[0], t.PID)
		if k.cfg.CachePreload {
			// §10.2: prefetch the incoming task's state so the fills
			// overlap the switch path instead of stalling it.
			line := k.M.LineSize()
			for off := 0; off < 128; off += line {
				k.M.Prefetch(k.dataPA+arch.PhysAddr(dataTaskStructs+t.slotOff()+uint32(off)), cache.ClassKernelData)
			}
			k.M.Prefetch(k.dataPA+dataRunQueue, cache.ClassKernelData)
		}
		if k.cfg.FastReload {
			k.kexec(textSched, schedInstr)
			if k.cur != nil {
				k.kdataW(dataTaskStructs+k.cur.slotOff(), 128) // save
			}
			k.kdata(dataTaskStructs+t.slotOff(), 128) // restore
		} else {
			// The original exception/switch path: full register state
			// saved and restored through C (§6.1 measured a 33%
			// context-switch improvement from rewriting this).
			k.kexec(textSched, schedSlowInstr)
			if k.cur != nil {
				k.kdataW(dataTaskStructs+k.cur.slotOff(), 384)
			}
			k.kdata(dataTaskStructs+t.slotOff(), 384)
		}
		k.kdata(dataRunQueue, 64)
	}
	if k.kthreadMM != nil {
		panic("kernel: context switch during a UseMM span")
	}
	if k.cur == nil {
		// The incoming task's mm replaces a lazy-TLB borrow (idle or
		// post-exit): drop the borrowed space's existence reference.
		k.mmDrop(k.activeMM)
	}
	k.activeMM = t.mm
	k.cur = t
	k.M.Trc.SetTask(t.PID, t.mm.ID)
	k.loadSegments(t)
	k.loadFBBAT(t)
	if t.sigPending > 0 {
		k.drainSignals(t)
	}
}

// IdleStats reports what the idle task accomplished.
type IdleStats struct {
	Polls     uint64
	Reclaimed uint64
	Cleared   uint64
}

// RunIdleFor runs the idle task until the ledger has advanced by at
// least the given number of cycles — the simulation of an I/O wait
// ("the idle task runs quite often even on a heavily loaded system ...
// a lot of I/O happens that must be waited for", §9). Depending on
// configuration each poll reclaims zombie hash-table PTEs (§7) and/or
// clears free pages (§9).
func (k *Kernel) RunIdleFor(cycles clock.Cycles) IdleStats {
	defer k.M.Trc.Exit(k.M.Trc.IdleWait())
	var st IdleStats
	if k.cfg.IdleCacheLock {
		// §10.1: nothing the idle task does is time-critical, so lock
		// the cache for the duration — idle work may hit but never
		// evicts anyone's lines.
		k.M.SetCacheLock(true)
		defer k.M.SetCacheLock(false)
	}
	deadline := k.M.Led.Now() + cycles
	for k.M.Led.Now() < deadline {
		st.Polls++
		k.M.Mon.IdlePolls++
		k.kexec(textIdle, idlePollInstr)

		if k.cfg.IdleReclaim && k.cfg.LazyFlush && k.usesHTAB() {
			st.Reclaimed += uint64(k.idleReclaimScan())
		}

		switch k.cfg.IdleClear {
		case IdleClearOff:
			// Plain idle loop: spin.
			k.M.Led.Charge(32)
		case IdleClearCached:
			if pfn, ok := k.M.Mem.PopClearedCandidate(); ok {
				k.clearPageIdle(pfn, false)
				k.M.Mem.PushCleared(pfn)
				st.Cleared++
			} else {
				k.M.Led.Charge(32)
			}
		case IdleClearUncached:
			// Control experiment: clear with the cache off but throw
			// the work away (no list).
			if pfn, ok := k.M.Mem.PopClearedCandidate(); ok {
				k.clearPageIdle(pfn, true)
				st.Cleared++
			} else {
				k.M.Led.Charge(32)
			}
		case IdleClearUncachedList:
			if pfn, ok := k.M.Mem.PopClearedCandidate(); ok {
				k.clearPageIdle(pfn, true)
				k.M.Mem.PushCleared(pfn)
				st.Cleared++
			} else {
				k.M.Led.Charge(32)
			}
		}
	}
	return st
}

// idleReclaimScan is one idle-poll sweep over the hash table for
// zombie PTEs (§7), returning how many it reclaimed.
func (k *Kernel) idleReclaimScan() int {
	defer k.M.Trc.Exit(k.M.Trc.IdleScan())
	var n int
	scanStart := k.M.Led.Now()
	k.idleScan, n = k.M.MMU.HTAB.ReclaimScan(k.idleScan, idleReclaimGroups, k.M, k)
	if n > 0 {
		k.M.Trc.IdleReclaim(k.M.Led.Now()-scanStart, uint32(n))
	}
	return n
}

// clearPageIdle clears one page from the idle task: a store per line,
// cached or cache-inhibited per the experiment variant.
func (k *Kernel) clearPageIdle(pfn arch.PFN, inhibited bool) {
	defer k.M.Trc.Exit(k.M.Trc.Enter(telemetry.PhasePreZero))
	start := k.M.Led.Now()
	k.kexec(textIdle+0x200, idleClearInstr)
	line := k.M.LineSize()
	k.M.MemAccessRun(pfn.Addr(), arch.PageSize/line, line, cache.ClassIdle, inhibited, true)
	// EA carries the physical frame address: the page has no virtual
	// identity yet.
	k.M.Trc.PageZero(pfn.Addr(), k.M.Led.Now()-start)
}
