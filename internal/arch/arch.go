// Package arch defines the 32-bit PowerPC address-translation
// architecture as described in the PowerPC 603/604 user's manuals and in
// Dougan, Mackerras and Yodaiken, "Optimizing the Idle Task and Other MMU
// Tricks" (OSDI '99): 32-bit effective addresses, 52-bit virtual
// addresses formed by concatenating a 24-bit virtual segment identifier
// (VSID) with the 16-bit page index and 12-bit byte offset, 4 KB pages,
// and the primary/secondary hashed page table.
//
// The package is pure data and arithmetic — no state — so every other
// package (the MMU model, the kernel, the benchmarks) shares one
// definition of addresses, PTEs and hash functions.
package arch

import "fmt"

// Fundamental sizes of the 32-bit PowerPC translation architecture.
const (
	// PageShift is log2 of the page size. Pages are 4 KB.
	PageShift = 12
	// PageSize is the size of a page in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the byte offset within a page.
	PageMask = PageSize - 1

	// SegmentShift is log2 of the segment size. The 4 high-order bits
	// of an effective address select one of 16 256 MB segments.
	SegmentShift = 28
	// NumSegments is the number of segment registers.
	NumSegments = 16

	// PageIndexBits is the width of the page index within a segment:
	// bits 12..27 of the effective address.
	PageIndexBits = 16

	// VSIDBits is the width of a virtual segment identifier.
	VSIDBits = 24
	// VSIDMask masks a VSID to its architected width.
	VSIDMask = (1 << VSIDBits) - 1

	// KernelBase is the effective address at which the kernel lives.
	// Linux on 32-bit machines reserves 0xC0000000..0xFFFFFFFF for
	// kernel text/data and I/O space.
	KernelBase = 0xC0000000
)

// EffectiveAddr is a 32-bit program (logical) address.
type EffectiveAddr uint32

// PhysAddr is a 32-bit physical address.
type PhysAddr uint32

// VirtAddr is the 52-bit virtual address formed from VSID, page index
// and byte offset. It is held in a uint64; the top 12 bits are zero.
type VirtAddr uint64

// VSID is a 24-bit virtual segment identifier.
type VSID uint32

// VPN identifies a virtual page: the VSID concatenated with the 16-bit
// page index. It is what the TLB and hash table are keyed on.
type VPN uint64

// PFN is a 20-bit physical page frame number.
type PFN uint32

// SegIndex returns which of the 16 segment registers the effective
// address selects (its 4 high-order bits).
func (ea EffectiveAddr) SegIndex() int { return int(ea >> SegmentShift) }

// PageIndex returns the 16-bit page index within the segment.
func (ea EffectiveAddr) PageIndex() uint32 {
	return uint32(ea>>PageShift) & ((1 << PageIndexBits) - 1)
}

// Offset returns the 12-bit byte offset within the page.
func (ea EffectiveAddr) Offset() uint32 { return uint32(ea) & PageMask }

// PageBase returns the effective address with the byte offset cleared.
func (ea EffectiveAddr) PageBase() EffectiveAddr { return ea &^ PageMask }

// PageNumber returns the effective page number (ea >> 12). This is a
// property of the effective address alone, before segmentation.
func (ea EffectiveAddr) PageNumber() uint32 { return uint32(ea >> PageShift) }

// IsKernel reports whether the address falls in the kernel's reserved
// region (0xC0000000 and up).
func (ea EffectiveAddr) IsKernel() bool { return ea >= KernelBase }

// String formats the address in the conventional hex form.
func (ea EffectiveAddr) String() string { return fmt.Sprintf("0x%08x", uint32(ea)) }

// String formats the physical address in hex.
func (pa PhysAddr) String() string { return fmt.Sprintf("0x%08x", uint32(pa)) }

// Frame returns the physical page frame number of the address.
func (pa PhysAddr) Frame() PFN { return PFN(pa >> PageShift) }

// Offset returns the byte offset of the physical address within its frame.
func (pa PhysAddr) Offset() uint32 { return uint32(pa) & PageMask }

// Addr returns the physical base address of the frame.
func (f PFN) Addr() PhysAddr { return PhysAddr(f) << PageShift }

// Virtual builds the 52-bit virtual address from a VSID and the page
// index and offset of an effective address, per Figure 1 of the paper.
func Virtual(v VSID, ea EffectiveAddr) VirtAddr {
	return VirtAddr(uint64(v&VSIDMask)<<(PageIndexBits+PageShift) |
		uint64(ea.PageIndex())<<PageShift |
		uint64(ea.Offset()))
}

// VPNOf builds the virtual page number used as the TLB and hash-table
// key: VSID concatenated with the page index.
func VPNOf(v VSID, ea EffectiveAddr) VPN {
	return VPN(uint64(v&VSIDMask)<<PageIndexBits | uint64(ea.PageIndex()))
}

// VSID extracts the segment identifier from a virtual page number.
func (v VPN) VSID() VSID { return VSID(uint64(v)>>PageIndexBits) & VSIDMask }

// PageIndex extracts the 16-bit page index from a virtual page number.
func (v VPN) PageIndex() uint32 { return uint32(v) & ((1 << PageIndexBits) - 1) }

// VSID extracts the segment identifier from a virtual address.
func (va VirtAddr) VSID() VSID {
	return VSID(uint64(va)>>(PageIndexBits+PageShift)) & VSIDMask
}

// PageIndex extracts the 16-bit page index from a virtual address.
func (va VirtAddr) PageIndex() uint32 {
	return uint32(uint64(va)>>PageShift) & ((1 << PageIndexBits) - 1)
}

// Offset extracts the 12-bit byte offset from a virtual address.
func (va VirtAddr) Offset() uint32 { return uint32(va) & PageMask }

// VPN returns the virtual page number of the virtual address.
func (va VirtAddr) VPN() VPN { return VPN(uint64(va) >> PageShift) }
