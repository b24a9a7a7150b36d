package ppc

import (
	"fmt"

	"mmutricks/internal/arch"
)

// BATMinBlock is the smallest block a BAT register can map (128 KB).
const BATMinBlock = 128 << 10

// NumBATs is the number of BAT registers per side (4 instruction + 4
// data on the 603/604).
const NumBATs = 4

// BATEntry maps one virtual block of 128 KB or more onto a contiguous
// physical region, bypassing the TLB and hash table entirely.
type BATEntry struct {
	Valid bool
	// Base is the effective base address; must be aligned to Len.
	Base arch.EffectiveAddr
	// Len is the block length in bytes: a power of two >= 128 KB.
	Len uint32
	// Phys is the physical base the block maps to.
	Phys arch.PhysAddr
	// Inhibited marks the block cache-inhibited (used for I/O space).
	Inhibited bool
}

// Covers reports whether the entry translates ea.
func (b *BATEntry) Covers(ea arch.EffectiveAddr) bool {
	return b.Valid && uint32(ea)&^(b.Len-1) == uint32(b.Base)
}

// Translate maps ea within the block. Caller must check Covers first.
func (b *BATEntry) Translate(ea arch.EffectiveAddr) arch.PhysAddr {
	return b.Phys + arch.PhysAddr(uint32(ea)&(b.Len-1))
}

// BATArray is one side's four BAT registers (the hardware has separate
// instruction and data arrays).
type BATArray struct {
	entries [NumBATs]BATEntry
	// segs has bit s set when a valid entry overlaps segment s, so an
	// address in a segment no block touches misses after one bit test
	// (no BAT maps user space).
	segs uint16
}

// Set programs BAT register i. It validates the architected alignment
// and size constraints.
func (a *BATArray) Set(i int, e BATEntry) error {
	if i < 0 || i >= NumBATs {
		return fmt.Errorf("ppc: BAT index %d out of range", i)
	}
	if e.Valid {
		if e.Len < BATMinBlock || e.Len&(e.Len-1) != 0 {
			return fmt.Errorf("ppc: BAT length %#x not a power of two >= 128K", e.Len)
		}
		if uint32(e.Base)&(e.Len-1) != 0 {
			return fmt.Errorf("ppc: BAT base %v not aligned to length %#x", e.Base, e.Len)
		}
		if uint32(e.Phys)&(e.Len-1) != 0 {
			return fmt.Errorf("ppc: BAT phys %v not aligned to length %#x", e.Phys, e.Len)
		}
	}
	a.entries[i] = e
	a.segs = 0
	for j := range a.entries {
		if b := &a.entries[j]; b.Valid {
			first, last := uint32(b.Base)>>arch.SegmentShift, (uint32(b.Base)+b.Len-1)>>arch.SegmentShift
			a.segs |= uint16(1<<(last+1) - 1<<first)
		}
	}
	return nil
}

// Get returns BAT register i.
func (a *BATArray) Get(i int) BATEntry { return a.entries[i] }

// Clear invalidates all four registers.
func (a *BATArray) Clear() {
	a.entries = [NumBATs]BATEntry{}
	a.segs = 0
}

// Lookup finds the entry covering ea, if any. On real hardware the BAT
// compare runs in parallel with the segment lookup and wins ties, so a
// BAT hit costs no extra cycles.
func (a *BATArray) Lookup(ea arch.EffectiveAddr) (pa arch.PhysAddr, inhibited, ok bool) {
	if a.segs&(1<<ea.SegIndex()) == 0 {
		return 0, false, false
	}
	for i := range a.entries {
		if a.entries[i].Covers(ea) {
			return a.entries[i].Translate(ea), a.entries[i].Inhibited, true
		}
	}
	return 0, false, false
}
