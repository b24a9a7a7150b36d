package kernel

import (
	"fmt"
	"math/bits"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/vsid"
)

// RegionKind classifies a virtual-memory region.
type RegionKind int

const (
	// RegionText is shared, file-backed program text.
	RegionText RegionKind = iota
	// RegionAnon is private anonymous memory (heap, mmap).
	RegionAnon
	// RegionStack is the downward-growing stack (treated as anon).
	RegionStack
	// RegionIO is memory-mapped device space (the frame buffer):
	// shared, cache-inhibited, no frames to allocate or free.
	RegionIO
)

// Region is one VMA of a task's address space.
type Region struct {
	Start arch.EffectiveAddr
	Pages int
	Kind  RegionKind
	// Backing holds the shared page-cache frames for text regions.
	Backing []arch.PFN
}

// End returns the first address past the region.
func (r *Region) End() arch.EffectiveAddr {
	return r.Start + arch.EffectiveAddr(r.Pages*arch.PageSize)
}

// Contains reports whether ea falls inside the region.
func (r *Region) Contains(ea arch.EffectiveAddr) bool {
	return ea >= r.Start && ea < r.End()
}

// TaskState is the scheduling state of a task.
type TaskState int

const (
	// TaskRunnable tasks can be switched to.
	TaskRunnable TaskState = iota
	// TaskZombie tasks have exited and await Wait.
	TaskZombie
)

// Task is one simulated process.
type Task struct {
	PID   uint32
	Ctx   uint32
	Segs  [arch.NumSegments]arch.VSID
	PT    *pagetable.Table
	State TaskState

	// mm is the task's address-space descriptor (mm.go); nil once the
	// task has exited and dropped its user reference.
	mm *MM

	regions []*Region
	// owned are the private frames (anon/stack pages) freed at exit
	// or munmap. A bitset keyed by frame number: ownership is tested
	// on every fault-path frame decision, and the ascending iteration
	// order makes teardown's frees deterministic without sorting.
	owned pfnSet
	// cowPages are page numbers currently shared copy-on-write; a
	// store to one takes a protection fault (cow.go).
	cowPages map[uint32]struct{}
	// fbMapped records that IoremapFB has mapped the frame buffer.
	fbMapped bool
	// reclaimCursor remembers where the swap reclaimer last stole from
	// this task, for fair rotation.
	reclaimCursor uint32
	// roPages are write-protected pages (SysMprotect).
	roPages map[uint32]struct{}
	// Signal state (signal.go).
	sigInstalled    bool
	sigHandlerPage  int
	sigHandlerInstr int
	sigPending      int
	// nextMmap is the address the next anonymous mmap is placed at.
	nextMmap arch.EffectiveAddr
	// image is the program currently executed (nil before Exec).
	image *Image
}

// slotOff returns the task struct's offset in kernel data.
func (t *Task) slotOff() uint32 {
	return uint32(t.PID%64) * taskStructBytes
}

func (t *Task) regionFor(ea arch.EffectiveAddr) *Region {
	for _, r := range t.regions {
		if r.Contains(ea) {
			return r
		}
	}
	return nil
}

// pfnSet is a grow-on-demand bitset of physical frame numbers.
type pfnSet struct {
	bits []uint64
	n    int
}

func (s *pfnSet) add(pfn arch.PFN) {
	w := int(pfn >> 6)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	m := uint64(1) << (pfn & 63)
	if s.bits[w]&m == 0 {
		s.bits[w] |= m
		s.n++
	}
}

func (s *pfnSet) has(pfn arch.PFN) bool {
	w := int(pfn >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(pfn&63)) != 0
}

func (s *pfnSet) remove(pfn arch.PFN) {
	w := int(pfn >> 6)
	if w >= len(s.bits) {
		return
	}
	m := uint64(1) << (pfn & 63)
	if s.bits[w]&m != 0 {
		s.bits[w] &^= m
		s.n--
	}
}

func (s *pfnSet) len() int { return s.n }

// forEach visits the members in ascending frame order.
func (s *pfnSet) forEach(fn func(arch.PFN)) {
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(arch.PFN(w<<6 + b))
			word &= word - 1
		}
	}
}

func (s *pfnSet) clear() { s.bits = nil; s.n = 0 }

// reset empties the set but keeps its storage for reuse.
func (s *pfnSet) reset() { clear(s.bits); s.n = 0 }

func (t *Task) ownFrame(pfn arch.PFN) { t.owned.add(pfn) }

func (t *Task) owns(pfn arch.PFN) bool { return t.owned.has(pfn) }

func (t *Task) disownFrame(pfn arch.PFN) { t.owned.remove(pfn) }

func (t *Task) markCOW(pn uint32) {
	if t.cowPages == nil {
		t.cowPages = make(map[uint32]struct{})
	}
	t.cowPages[pn] = struct{}{}
}

func (t *Task) isCOW(pn uint32) bool {
	_, ok := t.cowPages[pn]
	return ok
}

func (t *Task) clearCOW(pn uint32) { delete(t.cowPages, pn) }

// Regions returns a copy of the task's region list.
func (t *Task) Regions() []*Region { return append([]*Region(nil), t.regions...) }

// Image is a program: its text lives in shared page-cache frames.
type Image struct {
	Name      string
	TextPages int
	Backing   []arch.PFN
}

// process-lifecycle instruction-path lengths.
const (
	forkInstr       = 1500
	execInstr       = 1200
	exitInstr       = 800
	waitInstr       = 200
	spawnStackPages = 4
)

// LoadImage creates a program image of the given text size, allocating
// page-cache frames for it. Loading is a setup operation (simulated
// "disk" contents appearing in the page cache); it charges nothing.
func (k *Kernel) LoadImage(name string, textPages int) *Image {
	if img, ok := k.images[name]; ok {
		return img
	}
	img := &Image{Name: name, TextPages: textPages}
	for i := 0; i < textPages; i++ {
		pfn, ok := k.M.Mem.AllocFrame()
		if !ok {
			panic("kernel: out of memory loading image")
		}
		img.Backing = append(img.Backing, pfn)
	}
	k.images[name] = img
	return img
}

// newContext assigns a task a fresh mm context and segment-register
// image.
func (k *Kernel) newContext(t *Task) {
	ctx, wrapped := k.ctx.Alloc()
	if wrapped {
		// The context counter wrapped: zombie tracking restarted, so
		// every stale translation must go now.
		k.M.MMU.InvalidateTLBs()
		k.M.MMU.HTAB.InvalidateAll()
	}
	t.Ctx = ctx
	t.Segs = k.ctx.VSIDs(ctx)
	k.M.Trc.VSIDReassign(t.Segs[0], ctx)
}

// Spawn creates a task running the given image — the boot-time
// equivalent of fork+exec for building workloads. It charges nothing;
// use Fork/Exec for measured process creation. If no task is current
// the new task is switched to immediately.
func (k *Kernel) Spawn(img *Image) *Task {
	t := k.SpawnTask(img)
	if k.cur == nil {
		k.switchTo(t, false)
	}
	return t
}

// SpawnTask creates a runnable task without scheduling it — the
// model's mm_init action: the task exists, owns a fresh address
// space, and waits on the runqueue. It charges nothing.
func (k *Kernel) SpawnTask(img *Image) *Task {
	pt, err := pagetable.New(k.M.Mem)
	if err != nil {
		panic("kernel: out of memory spawning task")
	}
	t := &Task{PID: k.nextPID, PT: pt}
	k.nextPID++
	k.newContext(t)
	k.newMM(t)
	t.image = img
	t.regions = []*Region{
		{Start: UserTextBase, Pages: img.TextPages, Kind: RegionText, Backing: img.Backing},
		{Start: UserDataBase, Pages: 1024, Kind: RegionAnon},
		{Start: UserStackTop - arch.EffectiveAddr(64*arch.PageSize), Pages: 64, Kind: RegionStack},
	}
	t.nextMmap = UserMmapBase
	k.tasks[t.PID] = t
	return t
}

// Fork creates a copy of the current task: shared text, copied anon and
// stack pages. (The real kernel uses copy-on-write; the eager copy here
// charges the same page-copy traffic at fork time instead of fault
// time, which keeps the process-creation benchmarks comparable across
// configurations without modelling COW faults.)
func (k *Kernel) Fork() *Task {
	parent := k.cur
	if parent == nil {
		panic("kernel: Fork with no current task")
	}
	k.M.Mon.Forks++
	k.kexec(textProc, forkInstr)
	k.kdata(dataTaskStructs+((parent.slotOff()+taskStructBytes)%0x8000), taskStructBytes)

	pt, err := pagetable.New(k.M.Mem)
	if err != nil {
		panic("kernel: out of memory in fork")
	}
	child := &Task{PID: k.nextPID, PT: pt, nextMmap: parent.nextMmap, image: parent.image}
	k.nextPID++
	k.newContext(child)
	for _, r := range parent.regions {
		nr := *r
		child.regions = append(child.regions, &nr)
	}
	if k.cfg.COWFork {
		// Share the parent's private pages copy-on-write (cow.go).
		k.forkCOW(parent, child)
	} else {
		// Copy the parent's present private pages eagerly.
		for _, r := range parent.regions {
			if r.Kind == RegionText {
				continue
			}
			parent.PT.Range(r.Start, r.End(), func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
				pfn := k.getFreePage()
				child.ownFrame(pfn)
				k.copyPage(e.RPN(), pfn)
				k.mapPage(child, ea, pfn, false)
				return true
			})
		}
	}
	// Text is shared: map nothing; the child demand-faults it (cheap
	// minor faults against the page cache). The mm descriptor and the
	// task-table entry appear together, after the copy traffic: a
	// machine check delivered mid-fork must neither find a registered
	// mm with no visible holder nor escalate against (and tear down)
	// a half-constructed task.
	k.newMM(child)
	k.tasks[child.PID] = child
	return child
}

// copyPage charges a page copy: read source, write destination, line by
// line, through the kernel linear mapping.
func (k *Kernel) copyPage(src, dst arch.PFN) {
	line := k.M.LineSize()
	k.M.MemPairRun(src.Addr(), dst.Addr(), arch.PageSize/line,
		cache.ClassKernelData, cache.ClassKernelData, false, true)
	k.M.Led.Charge(clock.Cycles(arch.PageSize / line * 2))
}

// Exec replaces the current task's address space with a fresh one
// running img. The old context is flushed — in lazy mode a VSID
// reassignment, in eager mode a hash-table search per mapped page (§7).
func (k *Kernel) Exec(img *Image) {
	t := k.cur
	if t == nil {
		panic("kernel: Exec with no current task")
	}
	k.M.Mon.Execs++
	k.kexec(textProc+0x400, execInstr)
	k.teardownMM(t)
	t.image = img
	t.regions = []*Region{
		{Start: UserTextBase, Pages: img.TextPages, Kind: RegionText, Backing: img.Backing},
		{Start: UserDataBase, Pages: 1024, Kind: RegionAnon},
		{Start: UserStackTop - arch.EffectiveAddr(64*arch.PageSize), Pages: 64, Kind: RegionStack},
	}
	t.nextMmap = UserMmapBase
}

// Exit terminates the current task, tearing down its address space.
// Another runnable task (or nil) becomes current; call Switch to pick
// the next runner explicitly.
func (k *Kernel) Exit() {
	t := k.cur
	if t == nil {
		panic("kernel: Exit with no current task")
	}
	k.M.Mon.Exits++
	k.kexec(textProc+0x800, exitInstr)
	// exit_mm: the CPU keeps the dying task's address space as a
	// lazy-TLB borrow (mmgrab) across the user-reference drop; the
	// final mmput tears the space down while t is still current, so
	// the flush path charges exactly as a direct teardown would. The
	// task leaves the live set before the teardown traffic starts so
	// a mid-teardown consistency sweep sees a coherent state.
	m := t.mm
	t.mm = nil
	t.State = TaskZombie
	k.mmGrab(m)
	k.mmPut(m)
	k.cur = nil
}

// Wait reaps a zombie child, freeing its task slot.
func (k *Kernel) Wait(child *Task) {
	if child.State != TaskZombie {
		panic(fmt.Sprintf("kernel: Wait on live task %d", child.PID))
	}
	k.kexec(textProc+0xC00, waitInstr)
	delete(k.tasks, child.PID)
}

// teardownMM unmaps everything, frees private frames and flushes the
// task's translations.
func (k *Kernel) teardownMM(t *Task) {
	// Drop copy-on-write references and swap slots before the tree
	// goes away.
	k.releaseTaskCOW(t, 0, arch.KernelBase)
	for key := range k.swapped {
		if key.pid == t.PID {
			delete(k.swapped, key)
		}
	}
	// Flush translations first (eager flushing needs the page tree to
	// know which hash-table entries to hunt down).
	k.flushContext(t)
	// Release the tree's entries and the private frames.
	for _, r := range t.regions {
		var toUnmap []arch.EffectiveAddr
		t.PT.Range(r.Start, r.End(), func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
			toUnmap = append(toUnmap, ea)
			return true
		})
		for _, ea := range toUnmap {
			t.PT.Unmap(ea)
		}
	}
	// Free in ascending frame order — the bitset iterates sorted, so
	// the allocator's free list and all later physical placements are
	// deterministic.
	t.owned.forEach(func(pfn arch.PFN) {
		k.M.Mem.FreeFrame(pfn)
	})
	t.owned.clear()
	t.regions = nil
}

// Task returns the task with the given PID, if it exists.
func (k *Kernel) Task(pid uint32) (*Task, bool) {
	t, ok := k.tasks[pid]
	return t, ok
}

// Current returns the running task.
func (k *Kernel) Current() *Task { return k.cur }

// ContextAllocator exposes the VSID allocator for experiments.
func (k *Kernel) ContextAllocator() *vsid.ContextAllocator { return k.ctx }
