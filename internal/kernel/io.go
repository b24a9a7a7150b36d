package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/ppc"
)

// I/O space (§5.1's second half). The machine has a 2 MB frame buffer
// outside RAM. The kernel can reach it through a fixed window in kernel
// space; processes that call IoremapFB get it mapped into their own
// address space — either with ordinary PTEs (competing for TLB slots
// with everything else) or, the paper's proposal, with a dedicated data
// BAT register switched per process:
//
//	"We have considered having the kernel dedicate a BAT mapping to
//	the frame buffer itself so programs such as X do not compete
//	constantly with other applications or the kernel for TLB space.
//	In fact, the entire mechanism could be done per-process with a
//	call to ioremap() and giving each process its own data BAT entry
//	that could be switched during a context switch."
const (
	// FBPhysBase is the frame buffer's physical base, outside RAM.
	FBPhysBase arch.PhysAddr = 0x78000000
	// FBPages is the frame buffer size: 2 MB of video memory.
	FBPages = 512
	// KernelFBBase is the kernel's fixed window onto the frame buffer.
	KernelFBBase arch.EffectiveAddr = 0xF8000000
	// UserFBBase is where IoremapFB places the frame buffer in a
	// process (BAT blocks must be alignment-sized; 0xB0000000 is 2 MB
	// aligned and in user space).
	UserFBBase arch.EffectiveAddr = 0xB0000000

	fbBytes      = FBPages * arch.PageSize
	ioremapInstr = 500 // build the mapping / program the BAT
)

// fbDBATSlot is the data BAT register dedicated to the per-process
// frame-buffer mapping; slot 1 is the kernel's own I/O window.
const (
	ioDBATSlot = 1
	fbDBATSlot = 2
)

// bootIO programs the kernel's I/O window BAT when configured.
func (k *Kernel) bootIO() {
	if !k.cfg.MapIOWithBAT {
		return
	}
	e := ppc.BATEntry{Valid: true, Base: KernelFBBase, Len: fbBytes, Phys: FBPhysBase, Inhibited: true}
	if err := k.M.MMU.DBAT.Set(ioDBATSlot, e); err != nil {
		panic(fmt.Sprintf("kernel: I/O DBAT: %v", err))
	}
}

// ioLinear translates a kernel I/O-window address. ok is false outside
// the window.
func (k *Kernel) ioLinear(ea arch.EffectiveAddr) (arch.PFN, bool) {
	if ea < KernelFBBase || ea >= KernelFBBase+arch.EffectiveAddr(fbBytes) {
		return 0, false
	}
	return (FBPhysBase + arch.PhysAddr(ea-KernelFBBase)).Frame(), true
}

// IoremapFB maps the frame buffer into the current task at UserFBBase
// and returns that address. With Config.FBBAT the mapping is a
// dedicated per-process data BAT entry loaded at context switch;
// otherwise the pages demand-fault through ordinary PTEs and compete
// for TLB slots.
func (k *Kernel) IoremapFB() arch.EffectiveAddr {
	t := k.cur
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textMmap+0x800, ioremapInstr)
	if t.fbMapped {
		return UserFBBase
	}
	t.fbMapped = true
	backing := make([]arch.PFN, FBPages)
	for i := range backing {
		backing[i] = FBPhysBase.Frame() + arch.PFN(i)
	}
	t.regions = append(t.regions, &Region{
		Start: UserFBBase, Pages: FBPages, Kind: RegionIO, Backing: backing,
	})
	k.loadFBBAT(t)
	return UserFBBase
}

// loadFBBAT programs (or clears) the per-process frame-buffer BAT for
// the task taking the CPU.
func (k *Kernel) loadFBBAT(t *Task) {
	if !k.cfg.FBBAT {
		return
	}
	if t != nil && t.fbMapped {
		e := ppc.BATEntry{Valid: true, Base: UserFBBase, Len: fbBytes, Phys: FBPhysBase, Inhibited: true}
		if err := k.M.MMU.DBAT.Set(fbDBATSlot, e); err != nil {
			panic(fmt.Sprintf("kernel: FB DBAT: %v", err))
		}
	} else {
		_ = k.M.MMU.DBAT.Set(fbDBATSlot, ppc.BATEntry{})
	}
	k.M.Led.Charge(2) // the mtspr pair
}

// FBWrite simulates the current task blitting nbytes to the frame
// buffer starting at the given byte offset (wrapping within the frame
// buffer).
func (k *Kernel) FBWrite(off, nbytes int) {
	if k.cur == nil {
		panic("kernel: FBWrite with no current task")
	}
	line := k.M.LineSize()
	total := (nbytes + line - 1) / line
	for done := 0; done < total; {
		o := (off + done*line) % fbBytes
		cnt := min(total-done, (fbBytes-o+line-1)/line)
		k.AccessRun(k.cur, Run{
			EA: UserFBBase + arch.EffectiveAddr(o), Count: cnt, Stride: line,
			Class: cache.ClassIO, Stores: cache.AllStores,
		})
		done += cnt
	}
}

// KernelFBWrite simulates kernel console output through the kernel's
// own I/O window.
func (k *Kernel) KernelFBWrite(off, nbytes int) {
	line := k.M.LineSize()
	total := (nbytes + line - 1) / line
	for done := 0; done < total; {
		o := (off + done*line) % fbBytes
		cnt := min(total-done, (fbBytes-o+line-1)/line)
		k.AccessRun(k.cur, Run{
			EA: KernelFBBase + arch.EffectiveAddr(o), Count: cnt, Stride: line,
			Class: cache.ClassIO, Stores: cache.AllStores,
		})
		done += cnt
	}
}
