package kernel

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/pagetable"
)

// Syscall instruction-path lengths. The fast figures are the §6.1
// hand-optimized exception entry/exit; the slow figures are the
// original path that saves and restores full state through C.
const (
	// The hand-optimized entry/exit (§6.1) against the original path,
	// which saved and restored full state through C. The paper's own
	// ratio calibrates these: null syscall went from 18 µs to 2 µs at
	// 133 MHz, a ~2100-cycle difference in path cost.
	syscallFastInstr = 180
	syscallSlowInstr = 1600
	trapCycles       = 40 // taking and returning from the trap itself

	pipeOpInstr = 400 // pipe read/write bookkeeping
	mmapInstr   = 380 // build the vma
	munmapInstr = 300 // remove the vma (plus flush costs)
	// The file-read path is per-page heavy: find_page hash walk,
	// locking, read-ahead bookkeeping, and the era's generic file copy
	// loop, which was far slower than the hand-tuned pipe copier. The
	// paper's tables consistently show file reread at roughly half of
	// pipe bandwidth; these constants are held fixed across all
	// configurations.
	filePerPageInstr      = 500
	fileCopyCyclesPerByte = 1
)

// syscallEntry charges the cost of entering and leaving the kernel for
// a system call, and enters the syscall phase; callers write
//
//	defer k.M.Trc.Exit(k.syscallEntry())
func (k *Kernel) syscallEntry() mmtrace.Span {
	s := k.M.Trc.Syscall()
	k.M.Led.Charge(trapCycles)
	if k.cfg.FastReload {
		k.kexec(textSyscall, syscallFastInstr)
		k.kdataW(dataTaskStructs+k.cur.slotOff(), 64)
	} else {
		k.kexec(textSyscall, syscallSlowInstr)
		k.kdataW(dataTaskStructs+k.cur.slotOff(), 256)
	}
	return s
}

// SysNull is the trivial system call (LmBench's getppid loop): pure
// entry/exit overhead.
func (k *Kernel) SysNull() {
	defer k.M.Trc.Exit(k.syscallEntry())
}

// ---------------------------------------------------------------------
// Pipes
// ---------------------------------------------------------------------

// Pipe is a one-page kernel FIFO.
type Pipe struct {
	ID  int
	buf arch.PFN
	// used is how many bytes are in the buffer; head is the read
	// offset (the buffer is a ring).
	used, head int
}

// Space returns how many bytes a write can currently accept.
func (p *Pipe) Space() int { return arch.PageSize - p.used }

// Buffered returns how many bytes a read can currently return.
func (p *Pipe) Buffered() int { return p.used }

// SysPipe creates a pipe, allocating its kernel buffer page.
func (k *Kernel) SysPipe() *Pipe {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textPipe, 120)
	pfn := k.getFreePage()
	p := &Pipe{ID: k.nextPipe, buf: pfn}
	k.nextPipe++
	k.pipes[p.ID] = p
	return p
}

// SysPipeWrite copies up to n bytes from the user buffer at src into
// the pipe, returning how many were written (0 means the pipe is full
// and the caller would block — the workload is responsible for
// scheduling the reader, as LmBench's ping-pong structure does).
func (k *Kernel) SysPipeWrite(p *Pipe, src arch.EffectiveAddr, n int) int {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textPipe+0x200, pipeOpInstr)
	k.kdata(dataPipeTable+uint32(p.ID%32)*64, 64)
	n = min(n, p.Space())
	if n == 0 {
		return 0
	}
	k.copyUserKernel(src, p.buf, (p.head+p.used)%arch.PageSize, n, true)
	p.used += n
	return n
}

// SysPipeRead copies up to n bytes from the pipe into the user buffer
// at dst, returning how many were read (0 means empty).
func (k *Kernel) SysPipeRead(p *Pipe, dst arch.EffectiveAddr, n int) int {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textPipe+0x400, pipeOpInstr)
	k.kdata(dataPipeTable+uint32(p.ID%32)*64, 64)
	n = min(n, p.used)
	if n == 0 {
		return 0
	}
	k.copyUserKernel(dst, p.buf, p.head, n, false)
	p.head = (p.head + n) % arch.PageSize
	p.used -= n
	return n
}

// copyUserKernel charges a copy between user memory and a kernel frame:
// one load and one store per line, both sides through their real
// translation and cache paths (copy_to_user/copy_from_user).
func (k *Kernel) copyUserKernel(user arch.EffectiveAddr, frame arch.PFN, frameOff, n int, toKernel bool) {
	k.kexec(textCopyInOut, 20+(n/k.M.LineSize()))
	line := k.M.LineSize()
	t := k.cur
	userWrite := !toKernel
	if k.M.Inj != nil || (userWrite && t != nil && (len(t.cowPages) > 0 || len(t.roPages) > 0)) {
		// Injection polls and pending COW/RO write checks are
		// per-reference; keep the scalar interleaving.
		for i := 0; i < n; i += line {
			k.access(t, user+arch.EffectiveAddr(i), false, cache.ClassUser, userWrite)
			koff := (frameOff + i) % arch.PageSize
			k.M.MemAccess(frame.Addr()+arch.PhysAddr(koff), cache.ClassKernelData, false, toKernel)
		}
		k.M.Led.Charge(clock.Cycles(2 * (n / line)))
		return
	}
	total := (n + line - 1) / line
	done := 0
	for done < total {
		ea := user + arch.EffectiveAddr(done*line)
		koff := (frameOff + done*line) % arch.PageSize
		// Chunk: stay on the user page and inside the (wrapping) frame.
		cnt := min(total-done, min(
			(arch.PageSize-int(ea.Offset())+line-1)/line,
			(arch.PageSize-koff+line-1)/line))
		// The first reference translates through the full path, so a
		// user fault resolves at the exact scalar point in the stream.
		pa, inh := k.translate(t, ea, false)
		if inh {
			// Inhibited user page: per-reference latency and emits.
			k.M.MemAccess(pa, cache.ClassUser, true, userWrite)
			k.M.MemAccess(frame.Addr()+arch.PhysAddr(koff), cache.ClassKernelData, false, toKernel)
			done++
			continue
		}
		if cnt > 1 {
			k.replayHits(ea, false, cnt-1)
		}
		k.M.MemPairRun(pa, frame.Addr()+arch.PhysAddr(koff), cnt,
			cache.ClassUser, cache.ClassKernelData, userWrite, toKernel)
		done += cnt
	}
	k.M.Led.Charge(clock.Cycles(2 * (n / line)))
}

// ---------------------------------------------------------------------
// mmap / munmap
// ---------------------------------------------------------------------

// SysMmap maps pages of anonymous memory into the current task,
// returning the placement address. Pages are demand-faulted.
func (k *Kernel) SysMmap(pages int) arch.EffectiveAddr {
	t := k.cur
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textMmap, mmapInstr)
	k.kdata(dataVMAs+t.slotOff()%0x1000, 128)
	addr := t.nextMmap
	t.nextMmap += arch.EffectiveAddr(pages * arch.PageSize)
	t.regions = append(t.regions, &Region{Start: addr, Pages: pages, Kind: RegionAnon})
	// Mapping new addresses into a process must ensure no stale
	// translations cover the range (§7).
	k.flushRange(t, addr, pages)
	return addr
}

// SysMunmap removes a mapping, freeing its private frames and flushing
// its translations.
func (k *Kernel) SysMunmap(addr arch.EffectiveAddr, pages int) {
	t := k.cur
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textMmap+0x400, munmapInstr)
	k.kdata(dataVMAs+t.slotOff()%0x1000, 128)
	idx := -1
	for i, r := range t.regions {
		if r.Start == addr && r.Pages == pages {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("kernel: munmap of unmapped region %v", addr))
	}
	k.flushRange(t, addr, pages)
	end := addr + arch.EffectiveAddr(pages*arch.PageSize)
	k.unmapRangeFrames(t, addr, end)
	t.regions = append(t.regions[:idx], t.regions[idx+1:]...)
}

// unmapRangeFrames removes PT entries in [start,end) and frees the
// task-owned frames they referenced.
func (k *Kernel) unmapRangeFrames(t *Task, start, end arch.EffectiveAddr) {
	k.releaseTaskCOW(t, start, end)
	var eas []arch.EffectiveAddr
	t.PT.Range(start, end, func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
		eas = append(eas, ea)
		return true
	})
	for _, ea := range eas {
		e, ok := t.PT.Unmap(ea)
		if ok && t.owns(e.RPN()) {
			t.disownFrame(e.RPN())
			k.M.Mem.FreeFrame(e.RPN())
		}
	}
}

// SysMmapFile maps pages of file f (starting at page offset offPages)
// into the current task. The mapping shares the page-cache frames;
// faults are minor and munmap frees nothing — this is what LmBench's
// lat_mmap actually maps.
func (k *Kernel) SysMmapFile(f *File, offPages, pages int) arch.EffectiveAddr {
	t := k.cur
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textMmap, mmapInstr)
	k.kdata(dataVMAs+t.slotOff()%0x1000, 128)
	if offPages < 0 || pages <= 0 || offPages+pages > len(f.Pages) {
		panic(fmt.Sprintf("kernel: mmap of pages [%d,%d) beyond file of %d pages", offPages, offPages+pages, len(f.Pages)))
	}
	addr := t.nextMmap
	t.nextMmap += arch.EffectiveAddr(pages * arch.PageSize)
	t.regions = append(t.regions, &Region{
		Start: addr, Pages: pages, Kind: RegionText,
		Backing: f.Pages[offPages : offPages+pages],
	})
	k.flushRange(t, addr, pages)
	return addr
}

// SysBrk grows or shrinks the current task's heap (the data region) to
// newPages. Shrinking releases the dropped pages and flushes their
// translations — the "ranges of 40-110 pages ... flushed in one shot"
// that §7's tunable cutoff exists for.
func (k *Kernel) SysBrk(newPages int) {
	t := k.cur
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textMmap+0xC00, 250)
	heap := t.regionFor(UserDataBase)
	if heap == nil {
		panic("kernel: task has no heap region")
	}
	if newPages <= 0 {
		panic(fmt.Sprintf("kernel: brk to %d pages", newPages))
	}
	old := heap.Pages
	switch {
	case newPages > old:
		heap.Pages = newPages
		// New addresses must carry no stale translations (§7).
		k.flushRange(t, heap.Start+arch.EffectiveAddr(old*arch.PageSize), newPages-old)
	case newPages < old:
		start := heap.Start + arch.EffectiveAddr(newPages*arch.PageSize)
		k.flushRange(t, start, old-newPages)
		k.unmapRangeFrames(t, start, heap.End())
		heap.Pages = newPages
	}
}

// HeapPages returns the current size of the task's data region.
func (k *Kernel) HeapPages() int {
	heap := k.cur.regionFor(UserDataBase)
	if heap == nil {
		return 0
	}
	return heap.Pages
}

// ---------------------------------------------------------------------
// Files and the page cache
// ---------------------------------------------------------------------

// File is a page-cache-resident file.
type File struct {
	ID    int
	Pages []arch.PFN
}

// Size returns the file length in bytes.
func (f *File) Size() int { return len(f.Pages) * arch.PageSize }

// CreateFile makes a file of the given page count fully resident in
// the page cache (setup; charges nothing).
func (k *Kernel) CreateFile(pages int) *File {
	f := &File{ID: k.nextFile}
	k.nextFile++
	for i := 0; i < pages; i++ {
		pfn, ok := k.M.Mem.AllocFrame()
		if !ok {
			panic("kernel: out of memory creating file")
		}
		f.Pages = append(f.Pages, pfn)
	}
	k.files[f.ID] = f
	return f
}

// SysRead copies n bytes of f starting at off into the user buffer at
// dst: a page-cache lookup and a copy_to_user per page — LmBench's
// "file reread" path.
func (k *Kernel) SysRead(f *File, off int, dst arch.EffectiveAddr, n int) int {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textFileIO, 80)
	if off >= f.Size() {
		return 0
	}
	n = min(n, f.Size()-off)
	done := 0
	for done < n {
		page := (off + done) / arch.PageSize
		pageOff := (off + done) % arch.PageSize
		chunk := min(n-done, arch.PageSize-pageOff)
		k.kexec(textFileIO+0x200, filePerPageInstr)
		k.kdata(dataPageCache+uint32(page%128)*32, 256)
		k.copyUserKernel(dst+arch.EffectiveAddr(done), f.Pages[page], pageOff, chunk, false)
		k.M.Led.Charge(clock.Cycles(chunk * fileCopyCyclesPerByte))
		done += chunk
	}
	return n
}

// ---------------------------------------------------------------------
// User-mode execution helpers for workloads
// ---------------------------------------------------------------------

// UserRun simulates the current task executing n instructions of its
// program text starting at the given text page, with the matching
// instruction-fetch traffic.
func (k *Kernel) UserRun(textPage, n int) {
	t := k.cur
	if t == nil {
		panic("kernel: UserRun with no current task")
	}
	k.M.Led.Charge(clock.Cycles(n))
	line := k.M.LineSize()
	instrPerLine := line / 4
	lines := (n + instrPerLine - 1) / instrPerLine
	base := UserTextBase + arch.EffectiveAddr(textPage*arch.PageSize)
	// Wrap fetches within the image's text so the footprint is the
	// image's, not unbounded.
	span := t.image.TextPages * arch.PageSize
	for i := 0; i < lines; {
		off := (i * line) % span
		cnt := min(lines-i, (span-off)/line)
		k.AccessRun(t, Run{
			EA: base + arch.EffectiveAddr(off), Count: cnt, Stride: line,
			Class: cache.ClassUser, Instr: true,
		})
		i += cnt
	}
}

// UserTouch simulates the current task reading/writing nbytes at ea.
func (k *Kernel) UserTouch(ea arch.EffectiveAddr, nbytes int) {
	if k.cur == nil {
		panic("kernel: UserTouch with no current task")
	}
	k.utouch(ea, nbytes)
}

// UserTouchPages touches one word in each of n consecutive pages
// starting at ea — working-set style access for TLB experiments.
func (k *Kernel) UserTouchPages(ea arch.EffectiveAddr, n int) {
	if k.cur == nil {
		panic("kernel: UserTouchPages with no current task")
	}
	k.AccessRun(k.cur, Run{EA: ea, Count: n, Stride: arch.PageSize, Class: cache.ClassUser})
}

// UserRef performs a single user-mode data reference at ea — the
// primitive the trace-driven TLB/cache studies use.
func (k *Kernel) UserRef(ea arch.EffectiveAddr, write bool) {
	if k.cur == nil {
		panic("kernel: UserRef with no current task")
	}
	k.access(k.cur, ea, false, cache.ClassUser, write)
}

// UserRefRun performs count equally-strided user-mode data references
// starting at ea — the batched form of UserRef for generators that can
// describe their stream as runs.
func (k *Kernel) UserRefRun(ea arch.EffectiveAddr, count, stride int, write bool) {
	if k.cur == nil {
		panic("kernel: UserRefRun with no current task")
	}
	k.AccessRun(k.cur, Run{EA: ea, Count: count, Stride: stride, Class: cache.ClassUser, Stores: cache.StoresOf(write)})
}

// UserZero clears nbytes at ea from user mode, either with ordinary
// stores or with the dcbz cache-line-zero instruction — the §9 bzero
// design space. dcbz establishes each line zeroed and dirty without a
// memory read.
func (k *Kernel) UserZero(ea arch.EffectiveAddr, nbytes int, dcbz bool) {
	t := k.cur
	if t == nil {
		panic("kernel: UserZero with no current task")
	}
	line := k.M.LineSize()
	if k.M.Inj != nil || len(t.cowPages) > 0 {
		for i := 0; i < nbytes; i += line {
			a := ea + arch.EffectiveAddr(i)
			if t.isCOW(a.PageNumber()) {
				k.cowBreak(t, a)
			}
			pa, inhibited := k.translate(t, a, false)
			switch {
			case inhibited:
				k.M.MemAccess(pa, cache.ClassUser, true, true)
			case dcbz:
				k.M.ZeroLine(pa, cache.ClassUser)
			default:
				k.M.MemAccess(pa, cache.ClassUser, false, true)
			}
		}
		// One store-address update per line either way.
		k.M.Led.Charge(clock.Cycles(nbytes / line))
		return
	}
	total := (nbytes + line - 1) / line
	done := 0
	for done < total {
		a := ea + arch.EffectiveAddr(done*line)
		cnt := min(total-done, (arch.PageSize-int(a.Offset())+line-1)/line)
		pa, inhibited := k.translate(t, a, false)
		if inhibited {
			k.M.MemAccess(pa, cache.ClassUser, true, true)
			done++
			continue
		}
		if cnt > 1 {
			k.replayHits(a, false, cnt-1)
		}
		if dcbz {
			k.M.ZeroLineRun(pa, cnt, cache.ClassUser)
		} else {
			k.M.MemAccessRun(pa, cnt, line, cache.ClassUser, false, true)
		}
		done += cnt
	}
	// One store-address update per line either way.
	k.M.Led.Charge(clock.Cycles(nbytes / line))
}

// UserCopy moves nbytes from src to dst in user mode: one load and one
// store per line (an optimized word copy).
func (k *Kernel) UserCopy(dst, src arch.EffectiveAddr, nbytes int) {
	if k.cur == nil {
		panic("kernel: UserCopy with no current task")
	}
	t := k.cur
	line := k.M.LineSize()
	if k.M.Inj != nil || len(t.cowPages) > 0 || len(t.roPages) > 0 {
		for i := 0; i < nbytes; i += line {
			k.access(t, src+arch.EffectiveAddr(i), false, cache.ClassUser, false)
			k.access(t, dst+arch.EffectiveAddr(i), false, cache.ClassUser, true)
		}
		k.M.Led.Charge(clock.Cycles(2 * (nbytes / line)))
		return
	}
	total := (nbytes + line - 1) / line
	done := 0
	for done < total {
		s := src + arch.EffectiveAddr(done*line)
		d := dst + arch.EffectiveAddr(done*line)
		cnt := min(total-done, min(
			(arch.PageSize-int(s.Offset())+line-1)/line,
			(arch.PageSize-int(d.Offset())+line-1)/line))
		// The first load/store pair runs the full path so any fault on
		// either side resolves at the exact scalar point in the stream.
		spa, sinh := k.translate(t, s, false)
		k.M.MemAccess(spa, cache.ClassUser, sinh, false)
		dpa, dinh := k.translate(t, d, false)
		k.M.MemAccess(dpa, cache.ClassUser, dinh, true)
		done++
		cnt--
		if cnt <= 0 || sinh || dinh {
			continue
		}
		// The destination's fault handling may have evicted the source's
		// TLB entry (or vice versa when they share a set); only replay
		// the streak if both translations are still resident, otherwise
		// fall back to per-reference pairs so the re-fault lands where
		// scalar execution would take it.
		if !k.dataResident(s) || !k.dataResident(d) {
			continue
		}
		k.replayHits(s, false, cnt)
		k.replayHits(d, false, cnt)
		k.M.MemPairRun(spa+arch.PhysAddr(line), dpa+arch.PhysAddr(line), cnt,
			cache.ClassUser, cache.ClassUser, false, true)
		done += cnt
	}
	k.M.Led.Charge(clock.Cycles(2 * (nbytes / line)))
}

// KernelWork charges n instructions of generic in-kernel work (used by
// the OS-personality layer to model heavier kernels).
func (k *Kernel) KernelWork(n int) {
	k.kexec(textSched+0x800, n)
}

// IPCMessage charges one kernel-mediated message transfer of the given
// size — the copy and port/queue bookkeeping of a microkernel IPC.
func (k *Kernel) IPCMessage(bytes int) {
	k.kexec(textPipe+0x600, 120)
	k.kdata(dataPipeTable+0x800, 64)
	line := k.M.LineSize()
	base := kvirt(k.dataPA + arch.PhysAddr(dataPipeTable+0x1000))
	total := (bytes + line - 1) / line
	for done := 0; done < total; {
		off := (done * line) % 0x1000
		cnt := min(total-done, (0x1000-off)/line)
		k.AccessRun(k.cur, Run{
			EA: base + arch.EffectiveAddr(off), Count: cnt, Stride: line,
			Class: cache.ClassKernelData, Stores: cache.AllStores,
		})
		done += cnt
	}
	k.M.Led.Charge(clock.Cycles(2 * (bytes / line)))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
