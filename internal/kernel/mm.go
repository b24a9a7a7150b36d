package kernel

import (
	"fmt"

	"mmutricks/internal/telemetry"
)

// MM is the kernel's per-address-space descriptor — the piece of
// struct mm_struct the context-switch state machine cares about. The
// reference semantics follow Linux (and ctxsw.tla):
//
//   - Users counts address-space users: the owning task plus any
//     kernel thread that adopted the space via UseMM (mmget/mmput).
//     When Users drops to zero the address space is torn down.
//   - Count counts existence references: one collective reference on
//     behalf of all users, plus one per lazy-TLB borrower — a CPU
//     whose current task has exited (or gone idle) but whose segment
//     registers still name this space (mmgrab/mmdrop). When Count
//     drops to zero the descriptor itself is freed.
//
// init_mm (the kernel's own address space, borrowed by every CPU at
// boot) holds an extra permanent Count reference and is never freed.
type MM struct {
	ID    uint32
	Users int
	Count int

	// owner is the task whose address space this is; nil for init_mm.
	// The owner pointer outlives the owner's exit: a deferred teardown
	// (the last user reference dropped by a kernel thread after the
	// owner was killed) still needs the region list and page tree.
	owner *Task
}

// use_mm/unuse_mm instruction-path lengths (kthread address-space
// adoption; a segment reload plus refcount bookkeeping).
const (
	useMMInstr   = 150
	unuseMMInstr = 120
)

// bootMM sets up the mm bookkeeping at boot: init_mm carries the
// kernel's permanent reference plus one lazy-TLB borrow for the boot
// CPU (current == nil, active space == init_mm).
func (k *Kernel) bootMM() {
	k.initMM = &MM{ID: 0, Users: 0, Count: 2}
	k.mms = map[uint32]*MM{0: k.initMM}
	k.nextMM = 1
	k.activeMM = k.initMM
}

// newMM allocates a fresh address space owned by t — the mm half of
// fork/spawn. The owner holds the only user reference, and the user
// block collectively holds one existence reference.
func (k *Kernel) newMM(t *Task) {
	m := &MM{ID: k.nextMM, Users: 1, Count: 1, owner: t}
	k.nextMM++
	k.mms[m.ID] = m
	t.mm = m
}

// mmGet takes a user reference (Linux mmget): the space gains an
// address-space user. Only legal while the space still has users.
func (k *Kernel) mmGet(m *MM) {
	if m.Users <= 0 {
		panic(fmt.Sprintf("kernel: mmGet on mm %d with no users", m.ID))
	}
	m.Users++
}

// mmGrab takes an existence reference (Linux mmgrab): a lazy-TLB
// borrower keeps the descriptor alive without using the space.
func (k *Kernel) mmGrab(m *MM) {
	if m.Count <= 0 {
		panic(fmt.Sprintf("kernel: mmGrab on dead mm %d", m.ID))
	}
	m.Count++
}

// mmPut drops a user reference (Linux mmput). The final user releases
// the users' collective existence reference and tears the address
// space down (__mmput). The refcount arithmetic completes before the
// teardown's memory traffic: an asynchronous consistency sweep (a
// spurious machine check delivered inside the flush path) must never
// observe a half-updated refcount state.
func (k *Kernel) mmPut(m *MM) {
	m.Users--
	if m.Users > 0 {
		return
	}
	if m.Users < 0 {
		panic(fmt.Sprintf("kernel: mmPut underflow on mm %d", m.ID))
	}
	t := m.owner
	k.mmDrop(m)
	if t != nil {
		k.teardownMM(t)
		t.PT.Destroy()
	}
}

// mmDrop drops an existence reference (Linux mmdrop); the final one
// frees the descriptor. init_mm's permanent reference keeps it alive
// forever.
func (k *Kernel) mmDrop(m *MM) {
	m.Count--
	if m.Count > 0 {
		return
	}
	if m.Count < 0 {
		panic(fmt.Sprintf("kernel: mmDrop underflow on mm %d", m.ID))
	}
	if m == k.initMM {
		panic("kernel: init_mm freed")
	}
	delete(k.mms, m.ID)
}

// UseMM makes the kernel-thread context (no current task) adopt t's
// address space — Linux kthread_use_mm, the model's use_mm action. The
// thread becomes an address-space user (not a mere borrower), and the
// previously borrowed space loses its lazy reference. Until UnuseMM
// the CPU is pinned: context switches are illegal.
func (k *Kernel) UseMM(t *Task) {
	if k.cur != nil {
		panic("kernel: UseMM while a task is current")
	}
	if k.kthreadMM != nil {
		panic("kernel: nested UseMM")
	}
	if t.State != TaskRunnable || t.mm == nil {
		panic(fmt.Sprintf("kernel: UseMM on task %d without a live mm", t.PID))
	}
	defer k.M.Trc.Exit(k.M.Trc.KthreadMMSwitch())
	k.kexec(textSched+0x600, useMMInstr)
	m := t.mm
	k.mmGet(m)
	old := k.activeMM
	k.activeMM = m
	k.kthreadMM = m
	// Only the ledger's task changes: the tracer keeps naming the task
	// that last ran (after an exit, the dead one), as it always has.
	k.M.Trc.Phases().SetTask(0, m.ID)
	k.loadSegments(t)
	k.mmDrop(old)
}

// UnuseMM ends a UseMM span — Linux kthread_unuse_mm, the model's
// unuse_mm action. The CPU keeps the space as a lazy-TLB borrow (the
// segment registers still name it), so an existence reference is
// taken before the user reference is dropped.
func (k *Kernel) UnuseMM() {
	m := k.kthreadMM
	if m == nil {
		panic("kernel: UnuseMM without UseMM")
	}
	defer k.M.Trc.Exit(k.M.Trc.KthreadMMSwitch())
	k.kexec(textSched+0x700, unuseMMInstr)
	k.mmGrab(m)
	k.kthreadMM = nil
	if !mutantSkipUnusePut {
		k.mmPut(m)
	}
}

// SwitchToIdle switches the CPU from the current task to the idle
// loop — the model's borrow_mm action. The idle thread has no address
// space of its own, so it borrows the outgoing task's (lazy TLB,
// Linux's active_mm): no segment reload, one existence reference.
func (k *Kernel) SwitchToIdle() {
	t := k.cur
	if t == nil {
		panic("kernel: SwitchToIdle with no current task")
	}
	if k.kthreadMM != nil {
		panic("kernel: SwitchToIdle during a UseMM span")
	}
	// PID 0: the switch lands in the idle loop.
	defer k.M.Trc.CtxSwitch(k.M.Trc.Enter(telemetry.PhaseCtxSwitch), &t.Segs[0], 0)
	if k.cfg.FastReload {
		k.kexec(textSched, schedInstr)
		k.kdataW(dataTaskStructs+t.slotOff(), 128) // save
	} else {
		k.kexec(textSched, schedSlowInstr)
		k.kdataW(dataTaskStructs+t.slotOff(), 384)
	}
	k.kdata(dataRunQueue, 64)
	k.mmGrab(t.mm)
	k.cur = nil
	// PID 0 on the borrowed space: idle cycles still attribute to the
	// address space the segment registers name.
	k.M.Trc.SetTask(0, k.activeMM.ID)
}

// MM returns the task's address-space descriptor (nil after exit).
func (t *Task) MM() *MM { return t.mm }

// InitMM returns the kernel's own address space.
func (k *Kernel) InitMM() *MM { return k.initMM }

// ActiveMM returns the address space the CPU currently has loaded —
// the current task's space, or a borrowed one when no task is current.
func (k *Kernel) ActiveMM() *MM { return k.activeMM }

// KthreadMM returns the space adopted by UseMM, or nil outside a span.
func (k *Kernel) KthreadMM() *MM { return k.kthreadMM }

// MMRegistered reports whether m is still a live descriptor (its
// existence references have not all been dropped).
func (k *Kernel) MMRegistered(m *MM) bool {
	got, ok := k.mms[m.ID]
	return ok && got == m
}
