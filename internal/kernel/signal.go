package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/telemetry"
)

// Signals, enough for LmBench's lat_sig: a process installs a handler;
// delivery builds a signal frame on the user stack, runs the handler in
// user mode, and returns through sigreturn. Delivery to the current
// task is synchronous; to another task it is queued and runs when that
// task is next switched in.
const (
	sigInstallInstr = 180 // sigaction
	sigDeliverInstr = 320 // frame setup + register copyout
	sigReturnInstr  = 220 // sigreturn: frame teardown
	sigFrameBytes   = 192 // the frame written to the user stack
)

// SysSignal installs a signal handler for the current task. The
// handler is hdlrPage of the task's text and runs hdlrInstr
// instructions per delivery.
func (k *Kernel) SysSignal(hdlrPage, hdlrInstr int) {
	t := k.cur
	defer k.syscallEntry()()
	k.kexec(textProc+0x1000, sigInstallInstr)
	t.sigHandlerPage = hdlrPage
	t.sigHandlerInstr = hdlrInstr
	t.sigInstalled = true
}

// SysKill sends a signal to target. Delivery to the current task runs
// the handler before SysKill returns (the lat_sig pattern); otherwise
// the signal is left pending and fires when the target next runs.
func (k *Kernel) SysKill(target *Task) {
	defer k.syscallEntry()()
	k.kexec(textProc+0x1400, 150)
	if !target.sigInstalled {
		panic(fmt.Sprintf("kernel: signal to task %d with no handler", target.PID))
	}
	if target == k.cur {
		k.deliverSignal(target)
		return
	}
	target.sigPending++
}

// deliverSignal runs one signal delivery: kernel frame setup, the user
// handler, and sigreturn.
func (k *Kernel) deliverSignal(t *Task) {
	k.M.Mon.Signals++
	k.kexec(textProc+0x1800, sigDeliverInstr)
	// The frame lands on the user stack.
	k.utouch(UserStackTop-arch.EffectiveAddr(sigFrameBytes), sigFrameBytes)
	// The handler runs in user mode.
	k.UserRun(t.sigHandlerPage, t.sigHandlerInstr)
	// sigreturn.
	k.M.Led.Charge(trapCycles)
	k.kexec(textProc+0x1C00, sigReturnInstr)
	k.kdata(dataTaskStructs+t.slotOff(), 64)
}

// drainSignals delivers pending signals when a task takes the CPU.
func (k *Kernel) drainSignals(t *Task) {
	for t.sigPending > 0 {
		t.sigPending--
		k.deliverSignal(t)
	}
}

// SignalsDelivered reports total deliveries (for tests and tools).
func (k *Kernel) SignalsDelivered() uint64 { return k.M.Mon.Signals }

// SysMprotect write-protects (or unprotects) pages. A store to a
// protected page takes a protection fault delivered as a SIGSEGV to
// the task's handler — LmBench's "prot fault" latency.
func (k *Kernel) SysMprotect(addr arch.EffectiveAddr, pages int, readOnly bool) {
	t := k.cur
	defer k.syscallEntry()()
	k.kexec(textMmap+0x1000, 220)
	for i := 0; i < pages; i++ {
		pn := (addr + arch.EffectiveAddr(i*arch.PageSize)).PageNumber()
		if readOnly {
			if t.roPages == nil {
				t.roPages = make(map[uint32]struct{})
			}
			t.roPages[pn] = struct{}{}
		} else {
			delete(t.roPages, pn)
		}
	}
	// Permission changes must invalidate cached translations (§7's
	// flush discipline applies to protection bits too).
	k.flushRange(t, addr.PageBase(), pages)
}

// protFault services a store to a write-protected page: trap, SIGSEGV
// to the handler (which must exist — there is no one else to kill).
func (k *Kernel) protFault(t *Task, ea arch.EffectiveAddr) {
	defer k.M.Ph.Span(telemetry.PhaseFault)()
	k.M.Led.Charge(arch.PageSize / arch.PageSize * 32) // trap entry
	k.kexecHandler(textPageFault+0x800, 260)
	if !t.sigInstalled {
		panic(fmt.Sprintf("kernel: unhandled protection fault: task %d at %v", t.PID, ea))
	}
	k.deliverSignal(t)
}
