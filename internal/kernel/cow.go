package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/telemetry"
)

// Copy-on-write fork (Config.COWFork). Fork maps the parent's private
// pages into the child read-only-shared with a reference count; the
// first store to a shared page takes a protection fault that copies it
// and remaps the writer. The real hardware raises the fault from the
// PP bits on the cached translation; here the kernel intercepts the
// store on its way into the access path, which charges the same fault
// cost at the same moment without plumbing protection bits through the
// hardware model (the substitution is recorded in DESIGN.md).

// cowFaultInstr is the protection-fault path: entry, vma lookup,
// decision. The copy and remap costs are charged by the real
// copy/map/flush primitives.
const cowFaultInstr = 350

// shareCOW moves a frame into the shared pool (or bumps its count).
func (k *Kernel) shareCOW(pfn arch.PFN) {
	if k.sharedFrames == nil {
		k.sharedFrames = make(map[arch.PFN]int)
	}
	if n, ok := k.sharedFrames[pfn]; ok {
		k.sharedFrames[pfn] = n + 1
		return
	}
	k.sharedFrames[pfn] = 2 // previous sole owner plus the new sharer
}

// releaseCOW drops one reference; the frame is freed when the last
// sharer lets go. Returns true if the frame was freed.
func (k *Kernel) releaseCOW(pfn arch.PFN) bool {
	n, ok := k.sharedFrames[pfn]
	if !ok {
		panic(fmt.Sprintf("kernel: releaseCOW of unshared frame %#x", uint32(pfn)))
	}
	if n > 1 {
		k.sharedFrames[pfn] = n - 1
		return false
	}
	delete(k.sharedFrames, pfn)
	k.M.Mem.FreeFrame(pfn)
	return true
}

// forkCOW wires the child's address space to share the parent's
// private pages copy-on-write.
func (k *Kernel) forkCOW(parent, child *Task) {
	for _, r := range parent.regions {
		if r.Kind == RegionText {
			continue
		}
		parent.PT.Range(r.Start, r.End(), func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
			pn := ea.PageNumber()
			if parent.isCOW(pn) {
				// Already shared from an earlier fork: one more ref.
				k.sharedFrames[e.RPN()]++
			} else {
				parent.disownFrame(e.RPN())
				k.shareCOW(e.RPN())
				parent.markCOW(pn)
			}
			child.markCOW(pn)
			k.mapPage(child, ea, e.RPN(), e.Inhibited())
			// The parent's cached translations would permit stores on
			// real hardware until downgraded; flush them so both sides
			// reload read-only state (the flush cost is real, §7).
			k.flushPage(parent, ea)
			return true
		})
	}
}

// cowBreak services the protection fault a store to a shared page
// takes: copy the page for the writer (or reclaim exclusivity if the
// writer is the last sharer) and flush the stale translation.
func (k *Kernel) cowBreak(t *Task, ea arch.EffectiveAddr) {
	pn := ea.PageNumber()
	defer k.M.Trc.COWBreak(k.M.Trc.Enter(telemetry.PhaseFault), &t.Segs[ea.SegIndex()], ea)
	k.M.Led.Charge(clock.Cycles(k.M.Model.MissHandlerEntry))
	k.kexecHandler(textPageFault+0x400, cowFaultInstr)

	e, ok := t.PT.Lookup(ea.PageBase())
	if !ok {
		panic(fmt.Sprintf("kernel: COW break on unmapped page %v", ea))
	}
	t.clearCOW(pn)
	if n := k.sharedFrames[e.RPN()]; n <= 1 {
		// Last sharer: take the frame back exclusively.
		delete(k.sharedFrames, e.RPN())
		t.ownFrame(e.RPN())
		return
	}
	k.sharedFrames[e.RPN()]--
	pfn := k.getFreePage()
	t.ownFrame(pfn)
	k.copyPage(e.RPN(), pfn)
	k.mapPage(t, ea.PageBase(), pfn, e.Inhibited())
	k.flushPage(t, ea.PageBase())
}

// releaseTaskCOW drops the task's references on shared frames inside
// [start, end) — used by munmap and exit teardown.
func (k *Kernel) releaseTaskCOW(t *Task, start, end arch.EffectiveAddr) {
	if len(t.cowPages) == 0 {
		return
	}
	var pns []uint32
	t.PT.Range(start, end, func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
		pn := ea.PageNumber()
		if t.isCOW(pn) {
			k.releaseCOW(e.RPN())
			pns = append(pns, pn)
		}
		return true
	})
	for _, pn := range pns {
		t.clearCOW(pn)
	}
}
