// Package phys models the machine's physical memory: the frame
// allocator behind get_free_page(), the list of pre-cleared pages the
// idle task maintains (§9 of the paper), and the fixed physical layout
// of the kernel image and the hashed page table.
//
// Every machine in the paper has 32 MB of RAM (§4), keeping the ratio of
// RAM to hash-table PTEs to TLB entries constant; that is the default
// here too.
package phys

import (
	"fmt"

	"mmutricks/internal/arch"
)

// DefaultRAM is the 32 MB configuration used throughout the paper.
const DefaultRAM = 32 << 20

// Layout describes where the fixed kernel structures live in physical
// memory. The kernel image is one contiguous chunk starting at physical
// zero (which is what lets a single BAT entry map all of it, §5.1), and
// the hash table sits directly above it.
type Layout struct {
	// KernelBytes is the size of kernel text+static data.
	KernelBytes int
	// HTABBase is the physical base of the hashed page table.
	HTABBase arch.PhysAddr
	// HTABBytes is the size of the hash table (128 KB by default).
	HTABBytes int
	// FirstFree is the first frame available to the allocator.
	FirstFree arch.PFN
}

// Stats counts allocator activity.
type Stats struct {
	// Allocated and Freed count frame-allocator operations.
	Allocated, Freed uint64
	// ClearedHits counts GetFreePage requests satisfied from the
	// pre-cleared list; ClearedMisses those that were not.
	ClearedHits, ClearedMisses uint64
	// IdleCleared counts pages cleared by the idle task.
	IdleCleared uint64
}

// Memory is the physical memory of one simulated machine.
//
// Free frames sit on two intrusive lists threaded through per-frame
// links. free is the free stack: FreeFrame pushes on top and
// AllocFrame pops the top. cand holds the idle task's candidates, the
// free frames not on the cleared list, in free-stack order. A frame is
// on free iff !inUse and on cand iff also !onList. Both lists gain
// frames only at the top (FreeFrame) and lose them by unlinking, so
// cand stays a subsequence of free and its top is the topmost free
// frame not yet cleared. Every operation is O(1), amortized for the
// cleared slice's appends.
type Memory struct {
	frames  int
	layout  Layout
	free    frameList
	cand    frameList
	nfree   int
	inUse   []bool
	cleared []arch.PFN
	onList  []bool
	stats   Stats
}

// frameList is an intrusive doubly linked list of frames: entry f
// holds frame f's neighbours, and the last entry, at index Frames(),
// is the sentinel whose down link is the top and whose up link is the
// bottom. An empty list's sentinel links to itself.
type frameList []frameLink

type frameLink struct{ up, down arch.PFN }

// top returns the list's top frame; ok is false when it is empty.
func (l frameList) top() (f arch.PFN, ok bool) {
	s := len(l) - 1
	if f = l[s].down; int(f) == s {
		return 0, false
	}
	return f, true
}

// push puts a frame that is on no list of this kind on top.
func (l frameList) push(f arch.PFN) {
	s := arch.PFN(len(l) - 1)
	top := l[s].down
	l[f] = frameLink{up: s, down: top}
	l[top].up = f
	l[s].down = f
}

// unlink removes a frame from anywhere in the list.
func (l frameList) unlink(f arch.PFN) {
	up, down := l[f].up, l[f].down
	l[up].down = down
	l[down].up = up
}

// New builds a memory of the given size with the given kernel image
// size and the architecture-recommended hash table. Sizes must be page
// multiples.
func New(ramBytes, kernelBytes int) *Memory {
	return NewWithHTAB(ramBytes, kernelBytes, arch.DefaultHTABGroups)
}

// NewWithHTAB builds a memory with a hash table of the given group
// count — used by the hash-table-size experiments ("we could have
// decreased the size of the hash table and free RAM for use by the
// system", §7).
func NewWithHTAB(ramBytes, kernelBytes, htabGroups int) *Memory {
	if ramBytes <= 0 || ramBytes&arch.PageMask != 0 {
		panic(fmt.Sprintf("phys: bad RAM size %d", ramBytes))
	}
	if kernelBytes <= 0 || kernelBytes&arch.PageMask != 0 {
		panic(fmt.Sprintf("phys: bad kernel size %d", kernelBytes))
	}
	if htabGroups <= 0 || htabGroups&(htabGroups-1) != 0 {
		panic(fmt.Sprintf("phys: bad hash-table group count %d", htabGroups))
	}
	htabBytes := htabGroups * arch.PTEGSize * arch.PTEBytes
	if htabBytes&arch.PageMask != 0 {
		panic(fmt.Sprintf("phys: hash table size %d not page-aligned", htabBytes))
	}
	reserved := kernelBytes + htabBytes
	if reserved >= ramBytes {
		panic("phys: kernel + hash table exceed RAM")
	}
	frames := ramBytes / arch.PageSize
	m := &Memory{
		frames: frames,
		layout: Layout{
			KernelBytes: kernelBytes,
			HTABBase:    arch.PhysAddr(kernelBytes),
			HTABBytes:   htabBytes,
			FirstFree:   arch.PFN(reserved / arch.PageSize),
		},
		free:   make(frameList, frames+1),
		cand:   make(frameList, frames+1),
		nfree:  frames - reserved/arch.PageSize,
		inUse:  make([]bool, frames),
		onList: make([]bool, frames),
	}
	for f := arch.PFN(0); f < m.layout.FirstFree; f++ {
		m.inUse[f] = true
	}
	// Free frames are handed out low-to-high, which is deterministic:
	// the stack runs from FirstFree on top down to the last frame, whose
	// down link is the sentinel. Nothing is cleared yet, so the
	// candidate list starts as the same sequence.
	first, sentinel := m.layout.FirstFree, arch.PFN(frames)
	for f := first; f < sentinel; f++ {
		l := frameLink{up: f - 1, down: f + 1}
		m.free[f], m.cand[f] = l, l
	}
	m.free[first].up, m.cand[first].up = sentinel, sentinel
	l := frameLink{up: sentinel - 1, down: first}
	m.free[sentinel], m.cand[sentinel] = l, l
	return m
}

// NewDefault builds the paper's 32 MB machine with a 2 MB kernel image.
func NewDefault() *Memory { return New(DefaultRAM, 2<<20) }

// Frames returns the total number of page frames.
func (m *Memory) Frames() int { return m.frames }

// FreeFrames returns how many frames are currently free.
func (m *Memory) FreeFrames() int { return m.nfree }

// Layout returns the fixed physical layout.
func (m *Memory) Layout() Layout { return m.layout }

// Stats returns the live allocator counters.
func (m *Memory) Stats() *Stats { return &m.stats }

// AllocFrame removes a frame from the free list. ok is false when
// memory is exhausted. The frame is NOT taken from the cleared list and
// is not guaranteed zeroed; kernel code that needs a zeroed page uses
// GetFreePage.
func (m *Memory) AllocFrame() (pfn arch.PFN, ok bool) {
	if pfn, ok = m.free.top(); ok {
		m.take(pfn, m.onList[pfn])
	}
	return pfn, ok
}

// take marks a free frame allocated, unlinking it from the free stack
// and, unless it is banked on the cleared list, from the candidates.
// A banked frame keeps its onList flag and its cleared-list entry.
func (m *Memory) take(pfn arch.PFN, banked bool) {
	m.free.unlink(pfn)
	if !banked {
		m.cand.unlink(pfn)
	}
	m.nfree--
	m.inUse[pfn] = true
	m.stats.Allocated++
}

// FreeFrame returns a frame to the allocator. Freeing a reserved or
// already-free frame panics: that is a kernel bug, not a runtime
// condition.
func (m *Memory) FreeFrame(pfn arch.PFN) {
	if int(pfn) >= m.frames || pfn < m.layout.FirstFree {
		panic(fmt.Sprintf("phys: free of reserved frame %#x", uint32(pfn)))
	}
	if !m.inUse[pfn] {
		panic(fmt.Sprintf("phys: double free of frame %#x", uint32(pfn)))
	}
	m.inUse[pfn] = false
	m.onList[pfn] = false
	m.free.push(pfn)
	m.cand.push(pfn)
	m.nfree++
}

// InUse reports whether the frame is currently allocated (or reserved).
func (m *Memory) InUse(pfn arch.PFN) bool {
	return int(pfn) < m.frames && m.inUse[pfn]
}

// PopClearedCandidate picks the free frame the idle task should clear
// next: the topmost free frame not on the cleared list. It removes
// nothing; the frame stays free, and stays the candidate, until
// PushCleared banks it or an allocation takes it. Returns false when
// nothing is free or everything free is already on the cleared list.
func (m *Memory) PopClearedCandidate() (arch.PFN, bool) {
	return m.cand.top()
}

// PushCleared records that the idle task cleared the frame, making it
// eligible for the GetFreePage fast path. The frame stays on the free
// list; the cleared list is an overlay, mirroring the paper's lock-free
// list of pre-cleared pages.
func (m *Memory) PushCleared(pfn arch.PFN) {
	if m.inUse[pfn] || m.onList[pfn] {
		return
	}
	m.onList[pfn] = true
	m.cand.unlink(pfn)
	m.cleared = append(m.cleared, pfn)
	m.stats.IdleCleared++
}

// ClearedLen returns how many pre-cleared pages are banked.
func (m *Memory) ClearedLen() int { return len(m.cleared) }

// GetFreePage is the kernel's get_free_page(): it prefers a pre-cleared
// frame (fast path — "the only overhead is a check to see if there are
// any pre-cleared pages available", §9) and otherwise allocates a frame
// the caller must clear. cleared reports whether the returned frame was
// pre-cleared.
//
// A cleared-list entry can go stale: AllocFrame may take a banked
// frame, leaving its entry behind, and once FreeFrame returns that
// frame the entry still hands it out here as pre-cleared although it
// was never cleared again (TestStaleClearedEntryHandedOut pins this).
func (m *Memory) GetFreePage() (pfn arch.PFN, cleared, ok bool) {
	for len(m.cleared) > 0 {
		pfn = m.cleared[len(m.cleared)-1]
		m.cleared = m.cleared[:len(m.cleared)-1]
		banked := m.onList[pfn]
		m.onList[pfn] = false
		if m.inUse[pfn] {
			continue // frame was grabbed by AllocFrame since clearing
		}
		m.take(pfn, banked)
		m.stats.ClearedHits++
		return pfn, true, true
	}
	m.stats.ClearedMisses++
	pfn, ok = m.AllocFrame()
	return pfn, false, ok
}

// HTABFrames returns the physical frames occupied by the hash table,
// for mapping purposes.
func (m *Memory) HTABFrames() (first, count arch.PFN) {
	return m.layout.HTABBase.Frame(), arch.PFN(m.layout.HTABBytes / arch.PageSize)
}
