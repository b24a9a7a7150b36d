// Package pagetable implements the Linux-style two-level page-table
// tree (an x86-shaped PGD → PTE-page structure) that Linux/PPC keeps as
// the canonical source of translations. The PowerPC hash table is, as
// the paper stresses, only a cache of this tree; the fast TLB-reload
// path of §6.1 walks this tree directly "taking three loads in the
// worst case".
//
// The in-simulator representation mirrors the structure it models: a
// dense 1024-entry PGD array of lazily-allocated PTE pages, each a
// dense 1024-entry array of 4-byte software PTEs — 4 KB, the size of
// the frame the page models. Lookup, insert and remove
// are two array indexings — no hashing, no map, and zero allocation on
// the lookup path, which is the simulator's single hottest path (every
// simulated TLB-miss reload walks this tree). The §6 lesson applied to
// the simulator itself.
//
// The tree's pages live in simulated physical memory, and WalkAddrs
// exposes the physical addresses a walk touches so the kernel's reload
// handlers can charge those loads through the cache model.
package pagetable

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/phys"
)

// Geometry of the two-level tree on a 32-bit machine: the top ten bits
// of the effective address index the PGD, the next ten index a PTE
// page, each entry is four bytes.
const (
	// DirShift is the shift selecting the PGD index.
	DirShift = 22
	// EntriesPerPage is the entry count in the PGD and each PTE page.
	EntriesPerPage = 1024
	// EntryBytes is the size of one software PTE.
	EntryBytes = 4
)

// Entry is one software PTE in the tree, packed into the 32 bits the
// Linux/PPC tree gives it: the physical frame in the top 20 bits (so
// the word with its flags masked off is the frame's address), the
// present bit in bit 0 and the cache-inhibited bit in bit 1. The zero
// Entry is not present.
type Entry uint32

const (
	entryPresent   Entry = 1 << 0
	entryInhibited Entry = 1 << 1
	entryRPNShift        = arch.PageShift
)

// NewEntry builds a present entry mapping frame rpn.
func NewEntry(rpn arch.PFN, inhibited bool) Entry {
	e := Entry(rpn)<<entryRPNShift | entryPresent
	if inhibited {
		e |= entryInhibited
	}
	return e
}

// Present reports whether the entry holds a valid translation.
func (e Entry) Present() bool { return e&entryPresent != 0 }

// RPN returns the physical frame.
func (e Entry) RPN() arch.PFN { return arch.PFN(e >> entryRPNShift) }

// Inhibited reports whether the page is cache-inhibited.
func (e Entry) Inhibited() bool { return e&entryInhibited != 0 }

// ptePage is one lazily-allocated PTE page: the frame backing it in
// simulated physical memory, a live-entry count so empty pages can be
// freed, and the 1024 software PTEs themselves.
type ptePage struct {
	frame   arch.PFN
	live    int
	entries [EntriesPerPage]Entry
}

// Table is one process's page-table tree.
type Table struct {
	mem      *phys.Memory
	pgdFrame arch.PFN
	// pages is the dense PGD: pages[dirIndex] is the PTE page covering
	// that 4 MB region, nil until first Map.
	pages [EntriesPerPage]*ptePage
	// count is the number of present translations; ptePages the number
	// of allocated PTE pages.
	count     int
	ptePages  int
	destroyed bool
}

// New allocates a tree (one PGD page) from physical memory.
func New(mem *phys.Memory) (*Table, error) {
	pgd, ok := mem.AllocFrame()
	if !ok {
		return nil, fmt.Errorf("pagetable: out of memory allocating PGD")
	}
	return &Table{mem: mem, pgdFrame: pgd}, nil
}

func dirIndex(ea arch.EffectiveAddr) int { return int(ea >> DirShift) }

func pteIndex(ea arch.EffectiveAddr) int {
	return int(ea>>arch.PageShift) & (EntriesPerPage - 1)
}

// Map installs a translation for the page containing ea. It allocates
// a PTE page on first use of a 4 MB region.
func (t *Table) Map(ea arch.EffectiveAddr, rpn arch.PFN, inhibited bool) error {
	if t.destroyed {
		panic("pagetable: use after Destroy")
	}
	di := dirIndex(ea)
	p := t.pages[di]
	if p == nil {
		f, ok := t.mem.AllocFrame()
		if !ok {
			return fmt.Errorf("pagetable: out of memory allocating PTE page")
		}
		p = &ptePage{frame: f}
		t.pages[di] = p
		t.ptePages++
	}
	pi := pteIndex(ea)
	if !p.entries[pi].Present() {
		p.live++
		t.count++
	}
	p.entries[pi] = NewEntry(rpn, inhibited)
	return nil
}

// Lookup finds the translation for the page containing ea. It is two
// array indexings and performs no allocation.
func (t *Table) Lookup(ea arch.EffectiveAddr) (Entry, bool) {
	p := t.pages[dirIndex(ea)]
	if p == nil {
		return 0, false
	}
	e := p.entries[pteIndex(ea)]
	return e, e.Present()
}

// Unmap removes the translation, returning the entry it held. Empty
// PTE pages are returned to the allocator.
func (t *Table) Unmap(ea arch.EffectiveAddr) (Entry, bool) {
	di := dirIndex(ea)
	p := t.pages[di]
	if p == nil {
		return 0, false
	}
	pi := pteIndex(ea)
	e := p.entries[pi]
	if !e.Present() {
		return 0, false
	}
	p.entries[pi] = 0
	p.live--
	t.count--
	if p.live == 0 {
		t.mem.FreeFrame(p.frame)
		t.pages[di] = nil
		t.ptePages--
	}
	return e, true
}

// WalkAddrs returns the physical addresses a hardware-free walk of the
// tree touches for ea: the PGD entry and the PTE entry. ok is false if
// no PTE page covers ea (the walk stops after one load).
func (t *Table) WalkAddrs(ea arch.EffectiveAddr) (pgdAddr, pteAddr arch.PhysAddr, ok bool) {
	di := dirIndex(ea)
	pgdAddr = t.pgdFrame.Addr() + arch.PhysAddr(di*EntryBytes)
	p := t.pages[di]
	if p == nil {
		return pgdAddr, 0, false
	}
	pteAddr = p.frame.Addr() + arch.PhysAddr(pteIndex(ea)*EntryBytes)
	return pgdAddr, pteAddr, true
}

// Walk performs one descent for ea, returning both the entry and the
// physical addresses the walk touches — WalkAddrs and Lookup fused so
// the reload handlers pay a single descent. pteAddr is zero when no
// PTE page covers ea; ok reports a present translation.
func (t *Table) Walk(ea arch.EffectiveAddr) (e Entry, pgdAddr, pteAddr arch.PhysAddr, ok bool) {
	di := dirIndex(ea)
	pgdAddr = t.pgdFrame.Addr() + arch.PhysAddr(di*EntryBytes)
	p := t.pages[di]
	if p == nil {
		return 0, pgdAddr, 0, false
	}
	pi := pteIndex(ea)
	e = p.entries[pi]
	pteAddr = p.frame.Addr() + arch.PhysAddr(pi*EntryBytes)
	return e, pgdAddr, pteAddr, e.Present()
}

// PickPresent returns the address of an arbitrary (seeded) present
// translation below limit — the fault injector's victim selection for
// page-table ECC faults. The scan starts at a PRNG-chosen directory
// slot and wraps, so victims spread over the tree deterministically.
func (t *Table) PickPresent(rnd uint64, limit arch.EffectiveAddr) (arch.EffectiveAddr, bool) {
	start := int(rnd % EntriesPerPage)
	for i := 0; i < EntriesPerPage; i++ {
		di := (start + i) % EntriesPerPage
		if arch.EffectiveAddr(di)<<DirShift >= limit {
			continue
		}
		p := t.pages[di]
		if p == nil {
			continue
		}
		for pi := range p.entries {
			if !p.entries[pi].Present() {
				continue
			}
			ea := arch.EffectiveAddr(di)<<DirShift | arch.EffectiveAddr(pi)<<arch.PageShift
			if ea < limit {
				return ea, true
			}
		}
	}
	return 0, false
}

// CorruptRPN XORs flip into the frame number of the present entry for
// ea — an ECC fault in page-table memory, applied to the canonical
// tree itself (which is why the kernel cannot repair it and must
// escalate). It returns the physical address of the poisoned PTE for
// the machine-check report.
func (t *Table) CorruptRPN(ea arch.EffectiveAddr, flip arch.PFN) (pteAddr arch.PhysAddr, ok bool) {
	p := t.pages[dirIndex(ea)]
	if p == nil {
		return 0, false
	}
	pi := pteIndex(ea)
	if !p.entries[pi].Present() {
		return 0, false
	}
	p.entries[pi] ^= Entry(flip) << entryRPNShift
	return p.frame.Addr() + arch.PhysAddr(pi*EntryBytes), true
}

// Count returns the number of present translations.
func (t *Table) Count() int { return t.count }

// PTEPages returns how many PTE pages are allocated.
func (t *Table) PTEPages() int { return t.ptePages }

// Range calls fn for every present translation with page number inside
// [start, end) (end exclusive, page-aligned addresses). fn returning
// false stops the walk early. The walk is in ascending page order and
// skips unallocated 4 MB regions wholesale.
func (t *Table) Range(start, end arch.EffectiveAddr, fn func(ea arch.EffectiveAddr, e Entry) bool) {
	const dirPages = EntriesPerPage // page numbers per PGD entry
	endPN := end.PageNumber()
	for pn := start.PageNumber(); pn < endPN; {
		p := t.pages[pn>>(DirShift-arch.PageShift)]
		limit := (pn | (dirPages - 1)) + 1 // first page number of the next region
		if limit > endPN {
			limit = endPN
		}
		if p == nil {
			pn = limit
			continue
		}
		for ; pn < limit; pn++ {
			e := p.entries[pn&(dirPages-1)]
			if e.Present() {
				if !fn(arch.EffectiveAddr(pn)<<arch.PageShift, e) {
					return
				}
			}
		}
	}
}

// CountRange returns how many pages are mapped in [start, end).
func (t *Table) CountRange(start, end arch.EffectiveAddr) int {
	n := 0
	t.Range(start, end, func(arch.EffectiveAddr, Entry) bool { n++; return true })
	return n
}

// Destroy frees every frame the tree owns (PGD and PTE pages). The
// mapped data frames are the caller's to free; Destroy only tears down
// the tree itself. Frames are freed in directory order, which the dense
// PGD yields naturally, keeping allocator state deterministic.
func (t *Table) Destroy() {
	if t.destroyed {
		return
	}
	t.destroyed = true
	for di := range t.pages {
		if p := t.pages[di]; p != nil {
			t.mem.FreeFrame(p.frame)
			t.pages[di] = nil
		}
	}
	t.ptePages = 0
	t.count = 0
	t.mem.FreeFrame(t.pgdFrame)
}
