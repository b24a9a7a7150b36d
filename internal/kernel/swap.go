package kernel

import (
	"fmt"
	"sort"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/telemetry"
)

// Demand paging to swap. The paper's machines had 32 MB of RAM and a
// disk; when the frame allocator runs dry, the kernel reclaims resident
// anonymous pages — writing them to a simulated swap device, unmapping
// them and flushing their translations (each flush a §7-style per-page
// hash search on hash-table kernels) — and faults them back in on next
// touch.
//
// Only task-owned anonymous pages are swap candidates: text and file
// pages can be dropped and re-read from the page cache, device pages
// never move, and copy-on-write-shared frames are skipped for
// simplicity (they are transient).
const (
	// swapLatencyCycles is one page of swap-device I/O. A 1999 disk
	// seek is ~10 ms (millions of cycles); this models a well-placed
	// swap partition with request overlap so thrashing workloads stay
	// simulable. The constant only scales the thrash penalty.
	swapLatencyCycles = 60_000
	// swapReclaimBatch is how many pages one reclaim pass steals.
	swapReclaimBatch = 32
	swapOutInstr     = 300 // pick victim, queue the write
	swapInInstr      = 250 // the fault-side path
)

// swapKey names a swapped-out page.
type swapKey struct {
	pid uint32
	pn  uint32
}

// swapSlot records where the page went (the simulated device is a
// growing slot array; contents are cost-only).
type swapSlot int

// swapOut writes one page to the swap device and releases its frame.
func (k *Kernel) swapOut(t *Task, ea arch.EffectiveAddr, pfn arch.PFN) {
	defer k.M.Ph.Span(telemetry.PhaseSwap)()
	start := k.M.Led.Now()
	defer func() {
		k.M.Trc.SwapOut(t.Segs[ea.SegIndex()], ea, k.M.Led.Now()-start)
	}()
	k.kexecHandler(textGetFree+0x200, swapOutInstr)
	// Read the page for the device write (DMA; the device does not
	// pollute the cache but the read costs memory time per line).
	line := k.M.LineSize()
	for off := 0; off < arch.PageSize; off += line {
		k.M.DCache.AccessInhibited(cache.ClassKernelData)
	}
	k.M.Led.Charge(swapLatencyCycles)

	if k.swapped == nil {
		k.swapped = make(map[swapKey]swapSlot)
	}
	k.swapped[swapKey{t.PID, ea.PageNumber()}] = swapSlot(len(k.swapped))
	t.PT.Unmap(ea)
	k.flushPage(t, ea)
	t.disownFrame(pfn)
	k.M.Mem.FreeFrame(pfn)
}

// swapIn brings a swapped page back for the current fault.
func (k *Kernel) swapIn(t *Task, ea arch.EffectiveAddr) arch.PFN {
	defer k.M.Ph.Span(telemetry.PhaseSwap)()
	key := swapKey{t.PID, ea.PageBase().PageNumber()}
	if _, ok := k.swapped[key]; !ok {
		panic(fmt.Sprintf("kernel: swapIn of resident page %v", ea))
	}
	start := k.M.Led.Now()
	defer func() {
		k.M.Trc.SwapIn(t.Segs[ea.SegIndex()], ea, k.M.Led.Now()-start)
	}()
	k.kexecHandler(textGetFree+0x400, swapInInstr)
	k.M.Led.Charge(swapLatencyCycles)
	delete(k.swapped, key)
	pfn := k.getFreePageReclaim() // may itself reclaim
	// The device DMAs the content in; the lines are not cached.
	line := k.M.LineSize()
	for off := 0; off < arch.PageSize; off += line {
		k.M.DCache.AccessInhibited(cache.ClassKernelData)
	}
	return pfn
}

// isSwapped reports whether the page holding ea is on the device.
func (k *Kernel) isSwapped(t *Task, ea arch.EffectiveAddr) bool {
	if k.swapped == nil {
		return false
	}
	_, ok := k.swapped[swapKey{t.PID, ea.PageBase().PageNumber()}]
	return ok
}

// reclaimPages steals up to n resident anonymous pages, oldest tasks
// first, round-robin from a persistent cursor so victims rotate fairly
// and deterministically. It returns how many frames it freed.
func (k *Kernel) reclaimPages(n int) int {
	// Deterministic task order.
	pids := make([]uint32, 0, len(k.tasks))
	for pid := range k.tasks {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	freed := 0
	// A sweep skips pages at or below each task's cursor and resets the
	// cursor of every task it passes. So when a whole sweep frees
	// nothing — the cursors sat past every resident page — a second
	// sweep from the reset cursors is the wrap.
	for pass := 0; pass < 2 && freed == 0; pass++ {
		for _, pid := range pids {
			t := k.tasks[pid]
			if t.State == TaskZombie || t.PT == nil {
				continue
			}
			type victim struct {
				ea  arch.EffectiveAddr
				pfn arch.PFN
			}
			var victims []victim
			for _, r := range t.Regions() {
				if r.Kind != RegionAnon && r.Kind != RegionStack {
					continue
				}
				t.PT.Range(r.Start, r.End(), func(ea arch.EffectiveAddr, e pagetable.Entry) bool {
					if len(victims) >= n-freed {
						return false
					}
					if !t.owns(e.RPN) { // COW-shared or otherwise pinned
						return true
					}
					if ea.PageNumber() <= t.reclaimCursor {
						return true // already stolen this sweep; age others first
					}
					victims = append(victims, victim{ea, e.RPN})
					return true
				})
				if len(victims) >= n-freed {
					break
				}
			}
			for _, v := range victims {
				k.swapOut(t, v.ea, v.pfn)
				t.reclaimCursor = v.ea.PageNumber()
				freed++
			}
			if freed > 0 && t.reclaimCursor != 0 && len(victims) == 0 {
				t.reclaimCursor = 0 // wrapped: start over next time
			}
			if freed >= n {
				return freed
			}
			t.reclaimCursor = 0
		}
	}
	return freed
}

// getFreePageReclaim is getFreePage with an out-of-memory fallback:
// steal pages before giving up — the machine swaps instead of dying.
func (k *Kernel) getFreePageReclaim() arch.PFN {
	if k.M.Mem.FreeFrames() == 0 {
		if k.reclaimPages(swapReclaimBatch) == 0 {
			panic("kernel: out of memory and nothing reclaimable")
		}
	}
	return k.getFreePage()
}

// SwapStats reports swap activity.
type SwapStats struct {
	Outs, Ins uint64
	OnDevice  int
}

// Swap returns the current swap statistics.
func (k *Kernel) Swap() SwapStats {
	return SwapStats{
		Outs:     k.M.Mon.SwapOuts,
		Ins:      k.M.Mon.SwapIns,
		OnDevice: len(k.swapped),
	}
}
