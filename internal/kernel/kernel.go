package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/machine"
	// The kernel reaches its tracer as k.M.Trc and never names the
	// package, but the compiler inlines the typed event calls
	// (k.M.Trc.MajorFault, ...) only into packages that import mmtrace
	// themselves; without this import each disabled call would cost a
	// function call.
	_ "mmutricks/internal/mmtrace"
	"mmutricks/internal/ppc"
	"mmutricks/internal/vsid"
)

// Kernel is the simulated operating system running on one Machine.
type Kernel struct {
	M   *machine.Machine
	cfg Config

	// textPA/dataPA are the physical bases of kernel text and static
	// data inside the kernel image (text first, data after).
	textPA arch.PhysAddr
	dataPA arch.PhysAddr

	// ctx allocates memory-management contexts. In lazy-flush mode the
	// zombie set drives both eviction classification and idle reclaim;
	// in eager mode contexts are still allocated (they name address
	// spaces) but retiring searches the hash table instead.
	ctx *vsid.ContextAllocator

	nextPID uint32
	tasks   map[uint32]*Task
	cur     *Task

	// mm bookkeeping (mm.go): initMM is the kernel's own address
	// space; activeMM is the space the segment registers name right
	// now (the current task's, or a lazy-TLB borrow when cur == nil);
	// kthreadMM is non-nil inside a UseMM span; mms indexes the live
	// descriptors by ID.
	initMM    *MM
	activeMM  *MM
	kthreadMM *MM
	mms       map[uint32]*MM
	nextMM    uint32

	pipes    map[int]*Pipe
	nextPipe int
	files    map[int]*File
	names    map[string]*File
	nextFile int
	images   map[string]*Image

	// sharedFrames holds copy-on-write reference counts (cow.go).
	sharedFrames map[arch.PFN]int

	// swapped tracks pages resident on the swap device (swap.go).
	swapped map[swapKey]swapSlot

	// idleScan is the idle task's position in its hash-table sweep.
	idleScan int

	// faultDepth guards against unbounded recursion when a reload
	// handler's own kernel-text fetches miss the TLB.
	faultDepth int

	// inMC marks that the machine-check handler is running, so the
	// accesses it performs do not themselves poll the fault injector or
	// try to deliver nested machine checks.
	inMC bool

	// kxlat holds the last-translation fastpath records (data, instr)
	// for accesses issued in pure kernel context (t == nil); per-task
	// records live on the Task.
	kxlat [2]xlatRec

	// retryHits counts the 603 reloads whose retry ran as one TLB hit
	// instead of a full Translate (translateSlow).
	retryHits uint64
}

// kernelTextBytes and kernelDataBytes size the kernel image regions.
// Together they must not exceed the image size phys.Memory reserves.
const (
	kernelTextBytes = 0x20000 // 128 KB of kernel text
	kernelDataBytes = 0x60000 // 384 KB of static kernel data
)

// New boots a kernel with the given configuration on a fresh machine.
func New(m *machine.Machine, cfg Config) *Kernel {
	if cfg.Scatter == 0 {
		cfg.Scatter = vsid.DefaultScatter
	}
	k := &Kernel{
		M:       m,
		cfg:     cfg,
		textPA:  0,
		dataPA:  kernelTextBytes,
		ctx:     vsid.NewContextAllocator(cfg.Scatter, 0),
		nextPID: 1,
		tasks:   make(map[uint32]*Task),
		pipes:   make(map[int]*Pipe),
		files:   make(map[int]*File),
		images:  make(map[string]*Image),
	}
	k.bootMM()
	k.boot()
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// boot programs the MMU the way the configuration demands.
func (k *Kernel) boot() {
	mmu := k.M.MMU
	// Kernel segments (0xC..0xF) always carry the kernel's fixed
	// VSIDs (context 0); §7: "We reserved segments for the dynamically
	// mapped parts of the kernel ... and put a fixed VSID in these
	// segments."
	for seg := 12; seg < 16; seg++ {
		mmu.SetSegment(seg, vsid.For(0, seg, k.cfg.Scatter))
	}
	if k.cfg.KernelBAT {
		// One BAT pair maps all of kernel lowmem: the kernel image is
		// a single contiguous chunk of physical memory starting at 0,
		// and the hash table and page tables live in the same linear
		// region, so "mapping the hash table and page-tables is given
		// to us for free" (§5.1).
		ramLen := uint32(k.M.Mem.Frames() * arch.PageSize)
		e := ppc.BATEntry{Valid: true, Base: arch.KernelBase, Len: ramLen, Phys: 0}
		if err := mmu.IBAT.Set(0, e); err != nil {
			panic(fmt.Sprintf("kernel: IBAT: %v", err))
		}
		if err := mmu.DBAT.Set(0, e); err != nil {
			panic(fmt.Sprintf("kernel: DBAT: %v", err))
		}
	}
	// §8: the stock kernel lets table walks allocate in the cache; the
	// proposed fix marks the hash table cache-inhibited.
	mmu.HTAB.SetInhibited(!k.cfg.CachePageTables)
	k.bootIO()
}

// zombie classifies a VSID as belonging to a retired context. In eager
// mode nothing is ever a zombie: flushes physically invalidate.
func (k *Kernel) zombie(v arch.VSID) bool {
	if !k.cfg.LazyFlush {
		return false
	}
	return k.ctx.IsZombie(v)
}

// kvirt returns the kernel virtual address of a physical address (the
// linear mapping).
func kvirt(pa arch.PhysAddr) arch.EffectiveAddr {
	return arch.EffectiveAddr(uint32(KernelVirtBase) + uint32(pa))
}

// usesHTAB reports whether this kernel maintains the hash table: the
// 604's hardware demands it; on the 603 it is the UseHTAB policy (§6.2
// removes it).
func (k *Kernel) usesHTAB() bool {
	return k.cfg.UseHTAB || k.M.Model.Kind == clock.CPU604
}

// ptInhibited reports whether page-table-tree accesses should bypass
// the cache (§8's proposed fix applies to both the hash table and the
// Linux tree).
func (k *Kernel) ptInhibited() bool { return !k.cfg.CachePageTables }

// ---------------------------------------------------------------------
// The central memory-access path: translate, fault, retry, access.
// ---------------------------------------------------------------------

// access performs one memory access at an effective address on behalf
// of task t (nil for pure kernel context), servicing TLB/hash faults
// and page faults on the way. This is the simulated equivalent of one
// load/store (or one line's instruction fetch) issued by running code.
func (k *Kernel) access(t *Task, ea arch.EffectiveAddr, instr bool, class cache.Class, write bool) {
	if write && t != nil && !ea.IsKernel() {
		if len(t.cowPages) > 0 && t.isCOW(ea.PageNumber()) {
			k.cowBreak(t, ea)
		}
		if len(t.roPages) > 0 {
			if _, ro := t.roPages[ea.PageNumber()]; ro {
				k.protFault(t, ea)
			}
		}
	}
	pa, inhibited := k.translate(t, ea, instr)
	if instr {
		k.M.Fetch(pa, class, inhibited)
	} else {
		k.M.MemAccess(pa, class, inhibited, write)
	}
	if k.M.Inj != nil {
		k.faultTick(t)
	}
}

// translateSlow resolves ea through the full MMU walk, running the
// software fault paths until the translation succeeds, and refreshes
// the last-translation record for the fastpath in translate (run.go).
//
// A 603 reload ends by inserting the missing translation, so when no
// injector is attached and the translation generation did not move
// during the handler (no BAT written, no segment loaded, no TLB
// invalidated), the retry would miss the BATs again, compute the same
// VPN and hit the entry just inserted: it runs as that one TLB hit.
// The 604's retry is a real second hardware walk and stays a full
// Translate.
func (k *Kernel) translateSlow(t *Task, ea arch.EffectiveAddr, instr bool) (arch.PhysAddr, bool) {
	mmu := k.M.MMU
	r := mmu.Translate(ea, instr)
	for tries := 1; r.Fault != ppc.FaultNone; tries++ {
		gen := mmu.Gen()
		k.handleFault(t, ea, r, instr)
		if tries > 8 {
			panic(fmt.Sprintf("kernel: access %v not making progress", ea))
		}
		if r.Fault == ppc.FaultTLBMiss && k.M.Inj == nil && mmu.Gen() == gen {
			if hit, ok := mmu.TLBHit(ea, r.VPN, instr); ok {
				k.retryHits++
				r = hit
				break
			}
		}
		r = mmu.Translate(ea, instr)
	}
	k.note(t, ea, instr, r)
	return r.PA, r.Inhibited
}

// kexec simulates executing n kernel instructions at the given kernel
// text offset: one cycle per instruction plus instruction fetches, one
// per cache line, through translation (BAT, TLB, or the fault path).
func (k *Kernel) kexec(off uint32, n int) {
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

// kdata performs read accesses covering nbytes of kernel static data at
// the given offset, one access per cache line; kdataW is the store
// variant (saving state dirties the lines).
func (k *Kernel) kdata(off uint32, nbytes int) { k.kdataRW(off, nbytes, false) }

func (k *Kernel) kdataW(off uint32, nbytes int) { k.kdataRW(off, nbytes, true) }

func (k *Kernel) kdataRW(off uint32, nbytes int, write bool) {
	line := k.M.LineSize()
	base := uint32(kvirt(k.dataPA)) + off
	k.AccessRun(k.cur, Run{
		EA: arch.EffectiveAddr(base), Count: (nbytes + line - 1) / line, Stride: line,
		Class: cache.ClassKernelData, Stores: cache.StoresOf(write),
	})
}

// kframe performs data accesses covering nbytes of an arbitrary
// physical frame through the kernel linear mapping (pipe buffers, page
// cache pages, page clearing).
func (k *Kernel) kframe(pfn arch.PFN, off, nbytes int, class cache.Class, write bool) {
	line := k.M.LineSize()
	base := uint32(kvirt(pfn.Addr())) + uint32(off)
	k.AccessRun(k.cur, Run{
		EA: arch.EffectiveAddr(base), Count: (nbytes + line - 1) / line, Stride: line,
		Class: class, Stores: cache.StoresOf(write),
	})
}

// userMix is utouch's store mask: in every four lines, three loads and
// then one store.
const userMix cache.Stores = 0x8

// utouch performs user-mode data accesses covering [ea, ea+nbytes), one
// per cache line, on behalf of the current task, in the userMix
// read/write pattern.
func (k *Kernel) utouch(ea arch.EffectiveAddr, nbytes int) {
	line := k.M.LineSize()
	k.AccessRun(k.cur, Run{
		EA: ea, Count: (nbytes + line - 1) / line, Stride: line,
		Class: cache.ClassUser, Stores: userMix,
	})
}
