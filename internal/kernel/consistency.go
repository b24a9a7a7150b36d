package kernel

import (
	"fmt"
	"slices"

	"mmutricks/internal/arch"
	"mmutricks/internal/pagetable"
)

// vsidOwner records which live task (and which of its segments) a VSID
// belongs to.
type vsidOwner struct {
	t   *Task
	seg int
}

// sweepScratch is CheckConsistency's working storage, kept in the
// kernel and reused, so a sweep allocates nothing once the first has
// sized it — the machine-check handler sweeps after every repair.
type sweepScratch struct {
	// pids holds every task's PID in ascending order: each pass over
	// the tasks runs in it, so the first violation found is
	// deterministic.
	pids []uint32
	// live indexes the live VSIDs (see resolver).
	live map[arch.VSID]vsidOwner
	// private marks the frames some live task's tree maps and owns.
	private pfnSet
	// users and ids are checkMM's per-descriptor counts and order.
	users map[uint32]int
	ids   []uint32
}

// sortedPIDs refills the scratch PID list in ascending order.
func (k *Kernel) sortedPIDs() []uint32 {
	pids := k.sweep.pids[:0]
	for pid := range k.tasks {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	k.sweep.pids = pids
	return pids
}

// resolver answers "what is the canonical translation of this VPN?"
// questions against the kernel's authoritative structures (the live
// tasks' page trees and the kernel linear/I-O maps). It is the shared
// classification core of CheckConsistency and the machine-check
// handler: both need to decide whether a cached translation agrees
// with what the software structures say it should be.
type resolver struct {
	k    *Kernel
	live map[arch.VSID]vsidOwner
}

// newResolver indexes the live VSIDs of the tasks in pids order. It
// fails if two live contexts share a VSID (invariant 3).
func (k *Kernel) newResolver(pids []uint32) (resolver, error) {
	if k.sweep.live == nil {
		k.sweep.live = make(map[arch.VSID]vsidOwner)
	}
	r := resolver{k: k, live: k.sweep.live}
	clear(r.live)
	for _, pid := range pids {
		t := k.tasks[pid]
		if t.State == TaskZombie {
			continue
		}
		for seg := 0; seg < 12; seg++ {
			v := t.Segs[seg]
			if prev, dup := r.live[v]; dup && prev.t != t {
				return r, fmt.Errorf("VSID %#x shared by live tasks %d and %d", v, prev.t.PID, t.PID)
			}
			r.live[v] = vsidOwner{t, seg}
		}
	}
	return r, nil
}

// kernelSeg returns the kernel segment (12..15) whose register holds
// v, or -1.
func (r *resolver) kernelSeg(v arch.VSID) int {
	for seg := 12; seg < 16; seg++ {
		if r.k.M.MMU.Segment(seg) == v {
			return seg
		}
	}
	return -1
}

// canonicalFrame returns the authoritative frame for a VPN under its
// owner, and whether one exists. VPNs belonging to no live context
// (zombies, stale contexts) are exempt: ok is false with no error.
func (r *resolver) canonicalFrame(vpn arch.VPN) (arch.PFN, bool, error) {
	v := vpn.VSID()
	if seg := r.kernelSeg(v); seg >= 0 {
		ea := arch.EffectiveAddr(uint32(seg)<<arch.SegmentShift | vpn.PageIndex()<<arch.PageShift)
		if rpn, ok := r.k.ioLinear(ea); ok {
			return rpn, true, nil
		}
		rpn, ok := r.k.kernelLinear(ea)
		if !ok {
			return 0, false, fmt.Errorf("kernel VPN %#x outside the linear and I/O maps", vpn)
		}
		return rpn, true, nil
	}
	o, ok := r.live[v]
	if !ok {
		return 0, false, nil // zombie or stale: exempt from checks
	}
	ea := arch.EffectiveAddr(uint32(o.seg)<<arch.SegmentShift | vpn.PageIndex()<<arch.PageShift)
	e, present := o.t.PT.Lookup(ea)
	if !present {
		return 0, false, fmt.Errorf("live VSID %#x (task %d) has cached translation for unmapped %v", v, o.t.PID, ea)
	}
	return e.RPN(), true, nil
}

// CheckConsistency verifies the translation-coherence invariants that
// the paper's optimizations must preserve. Lazy flushing deliberately
// leaves stale-looking state around (zombie PTEs, unmatchable TLB
// entries), so the invariants are subtle and worth machine-checking:
//
//  1. Every valid TLB entry whose VSID belongs to a live context must
//     agree with the canonical translation (the task's page tree for
//     user pages, the linear map for kernel pages).
//  2. Every valid, live hash-table PTE must agree the same way.
//  3. No two live contexts share a VSID.
//  4. Frame accounting: every frame referenced by a live page tree is
//     allocated, and no frame is mapped privately by two tasks.
//  5. mm refcount identities (the ctxsw.tla MMInv, exact form): every
//     live descriptor's Users equals its address-space users (owning
//     live task + UseMM kthread) and Count equals the collective user
//     reference + init_mm's permanent reference + lazy-TLB borrows.
//  6. mm structure: live descriptors have Count > 0, the active space
//     is live and matches current's mm, exited tasks hold no mm, and
//     UseMM spans pin the CPU (no current task, active == adopted).
//  7. Phase-cycle conservation: when the telemetry ledger is enabled,
//     its attributed cycles sum exactly to the clock — every simulated
//     cycle belongs to exactly one phase.
//
// It returns an error describing the first violation found, or nil.
func (k *Kernel) CheckConsistency() error {
	pids := k.sortedPIDs()
	r, err := k.newResolver(pids)
	if err != nil {
		return err
	}

	// 1. TLB agreement (both arrays when split), in set order.
	var cacheErr error
	check := func(name string) func(vpn arch.VPN, rpn arch.PFN) bool {
		return func(vpn arch.VPN, rpn arch.PFN) bool {
			want, ok, err := r.canonicalFrame(vpn)
			if err != nil {
				cacheErr = fmt.Errorf("%s: %w", name, err)
				return false
			}
			if ok && want != rpn {
				cacheErr = fmt.Errorf("%s entry %#x -> frame %#x disagrees with canonical frame %#x", name, vpn, rpn, want)
				return false
			}
			return true
		}
	}
	k.M.MMU.TLB.ForEachValid(check("DTLB"))
	if cacheErr == nil && k.M.MMU.ITLB != k.M.MMU.TLB {
		k.M.MMU.ITLB.ForEachValid(check("ITLB"))
	}

	// 2. Hash-table agreement, in bucket order.
	if cacheErr == nil {
		k.M.MMU.HTAB.ForEachValid(check("HTAB"))
	}
	if cacheErr != nil {
		return cacheErr
	}

	// 4. Frame accounting.
	private := &k.sweep.private
	private.reset()
	for _, pid := range pids {
		t := k.tasks[pid]
		if t.State == TaskZombie || t.PT == nil {
			continue
		}
		var walkErr error
		t.PT.Range(0, arch.KernelBase, func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
			rpn := e.RPN()
			if int(rpn) >= k.M.Mem.Frames() {
				// Device space (the frame buffer) — not RAM.
				return true
			}
			if !k.M.Mem.InUse(rpn) {
				walkErr = fmt.Errorf("task %d maps free frame %#x at %v", t.PID, uint32(rpn), ea)
				return false
			}
			if t.owns(rpn) {
				if private.has(rpn) {
					walkErr = fmt.Errorf("frame %#x privately owned by tasks %d and %d", uint32(rpn), k.firstPrivateOwner(pids, rpn), t.PID)
					return false
				}
				private.add(rpn)
			}
			return true
		})
		if walkErr != nil {
			return walkErr
		}
	}

	// 7. Phase-cycle conservation. CheckConservation accrues before
	// checking, so running this sweep from inside a phase (the
	// machine-check handler calls it mid-span) is fine.
	if ph := k.M.Trc.Phases(); ph.Enabled() {
		if err := ph.CheckConservation(); err != nil {
			return err
		}
	}

	// 5 + 6. mm refcount identities and structure.
	return k.checkMM(pids)
}

// firstPrivateOwner returns the PID of the first task, in pids order,
// whose tree maps frame rpn below KernelBase and owns it: the owner a
// frame-accounting sweep met first. Only the error path calls it.
func (k *Kernel) firstPrivateOwner(pids []uint32, rpn arch.PFN) uint32 {
	for _, pid := range pids {
		t := k.tasks[pid]
		if t.State == TaskZombie || t.PT == nil || !t.owns(rpn) {
			continue
		}
		found := false
		t.PT.Range(0, arch.KernelBase, func(_ arch.EffectiveAddr, e pagetable.Entry) bool {
			found = e.RPN() == rpn
			return !found
		})
		if found {
			return pid
		}
	}
	return 0
}

// checkMM verifies invariants 5 and 6: the mm_users/mm_count
// identities and the structural facts they rest on. Iteration is in
// sorted ID/PID order (pids is every task's, ascending) so the first
// violation reported is deterministic.
func (k *Kernel) checkMM(pids []uint32) error {
	// Structure around the current CPU state.
	if k.activeMM == nil || !k.MMRegistered(k.activeMM) {
		return fmt.Errorf("active mm is nil or freed")
	}
	if k.cur != nil {
		if k.kthreadMM != nil {
			return fmt.Errorf("UseMM span with task %d current", k.cur.PID)
		}
		// cur.mm == nil is the dying-task window: current is past
		// exit_mm and runs on a borrowed active space until the final
		// switch away. Otherwise active must be current's own space.
		if k.cur.mm != nil && k.activeMM != k.cur.mm {
			return fmt.Errorf("current task %d mm does not match active mm", k.cur.PID)
		}
	}
	if k.kthreadMM != nil && k.activeMM != k.kthreadMM {
		return fmt.Errorf("UseMM space %d is not the active mm", k.kthreadMM.ID)
	}

	// Per-task structure, and the expected user counts.
	if k.sweep.users == nil {
		k.sweep.users = make(map[uint32]int)
	}
	wantUsers := k.sweep.users
	clear(wantUsers)
	for _, pid := range pids {
		t := k.tasks[pid]
		if t.State == TaskZombie {
			if t.mm != nil {
				return fmt.Errorf("zombie task %d still holds mm %d", pid, t.mm.ID)
			}
			continue
		}
		if t.mm == nil {
			return fmt.Errorf("live task %d has no mm", pid)
		}
		if !k.MMRegistered(t.mm) {
			return fmt.Errorf("live task %d holds freed mm %d", pid, t.mm.ID)
		}
		if t.mm.owner != t {
			return fmt.Errorf("task %d holds mm %d owned by another task", pid, t.mm.ID)
		}
		wantUsers[t.mm.ID]++
	}
	if k.kthreadMM != nil {
		wantUsers[k.kthreadMM.ID]++
	}

	// The identities, per live descriptor.
	ids := k.sweep.ids[:0]
	for id := range k.mms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	k.sweep.ids = ids
	for _, id := range ids {
		m := k.mms[id]
		if m.Count <= 0 {
			return fmt.Errorf("mm %d registered with count %d", id, m.Count)
		}
		if users := wantUsers[id]; m.Users != users {
			return fmt.Errorf("mm %d users=%d but %d task(s) hold it", id, m.Users, users)
		}
		count := 0
		if m.Users > 0 {
			count++ // the users' collective existence reference
		}
		if m == k.initMM {
			count++ // the kernel's permanent reference
		}
		if k.kthreadMM == nil && (k.cur == nil || k.cur.mm == nil) && k.activeMM == m {
			count++ // this CPU's lazy-TLB borrow (idle, or a dying task)
		}
		if m.Count != count {
			return fmt.Errorf("mm %d count=%d but %d reference(s) account for it", id, m.Count, count)
		}
	}
	return nil
}
