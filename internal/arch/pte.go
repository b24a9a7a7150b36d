package arch

import "fmt"

// PTE is a PowerPC hashed-page-table entry. The real hardware packs
// this into two 32-bit words; we keep the fields explicit but preserve
// the architected widths. A PTE associates a virtual page (VSID + page
// index, plus which hash function located it) with a physical frame and
// protection/housekeeping bits.
type PTE struct {
	// Valid is the V bit. The hardware only matches valid entries.
	Valid bool
	// VSID is the 24-bit virtual segment identifier.
	VSID VSID
	// API is the abbreviated page index stored in the entry. Together
	// with the hash that selected the bucket it reconstructs the full
	// page index; we store the full 16-bit index for simplicity, which
	// loses no information.
	API uint32
	// Hash records whether the entry was placed using the secondary
	// hash function (the architected H bit).
	Hash bool
	// RPN is the 20-bit real (physical) page number.
	RPN PFN
	// R and C are the referenced and changed bits maintained by the
	// table-walk hardware (or the software reload path).
	R, C bool
	// WIMG holds the storage-control bits; we track only the
	// cache-inhibited bit (I) which §8/§9 of the paper care about.
	CacheInhibited bool
	// PP is the 2-bit page-protection field.
	PP uint8
}

// Matches reports whether the entry translates the given virtual page.
func (p *PTE) Matches(vpn VPN) bool {
	return p.Valid && p.VSID == vpn.VSID() && p.API == vpn.PageIndex()
}

// VPN reconstructs the virtual page number the entry translates.
func (p *PTE) VPN() VPN { return VPN(uint64(p.VSID)<<PageIndexBits | uint64(p.API)) }

// String renders the entry for debugging and the htabviz tool.
func (p *PTE) String() string {
	v := " "
	if p.Valid {
		v = "V"
	}
	h := " "
	if p.Hash {
		h = "H"
	}
	return fmt.Sprintf("[%s%s vsid=%06x api=%04x rpn=%05x]", v, h, uint32(p.VSID), p.API, uint32(p.RPN))
}

// Hashed-page-table geometry. For 32 MB of RAM the architecture-
// recommended (and paper-measured) table holds 16384 PTEs: 2048 groups
// (PTEGs) of 8 entries, 64 bytes per group, 128 KB total.
const (
	// PTEGSize is the number of PTEs per primary/secondary bucket.
	PTEGSize = 8
	// PTEBytes is the size of one entry in memory (two words).
	PTEBytes = 8
	// DefaultHTABGroups is the bucket count for a 32 MB machine.
	DefaultHTABGroups = 2048
	// DefaultHTABEntries is the total PTE capacity of that table.
	DefaultHTABEntries = DefaultHTABGroups * PTEGSize
)

// HashPrimary computes the primary hash-table bucket index for a
// virtual page, per the PowerPC architecture: the low-order 19 bits of
// the VSID XORed with the 16-bit page index, folded onto the table size.
// groups must be a power of two.
func HashPrimary(vpn VPN, groups int) int {
	h := (uint32(vpn.VSID()) & 0x7FFFF) ^ vpn.PageIndex()
	return int(h) & (groups - 1)
}

// HashSecondary computes the secondary (overflow) bucket index, the
// ones-complement of the primary hash folded onto the table size.
func HashSecondary(vpn VPN, groups int) int {
	return (^HashPrimary(vpn, groups)) & (groups - 1)
}
