package arch

import "fmt"

// PTE is a PowerPC hashed-page-table entry, packed into the 64 bits
// the hardware gives it (two 32-bit words on the real part), so a
// PTEG of eight fills exactly one 64-byte host cache line. It
// associates a virtual page (VSID + page index, plus which hash
// function located it) with a physical frame. Layout, high bit first:
//
//	63      V     valid: the hardware only matches valid entries
//	62      H     placed by the secondary hash function
//	61..38  VSID  the 24-bit virtual segment identifier
//	37..22  PI    the full 16-bit page index
//	21..2   RPN   the 20-bit real page number
//	1       I     cache-inhibited, the one WIMG bit §8/§9 care about
//	0       —     unused
//
// The hardware stores only a 6-bit abbreviated page index and
// recovers the rest from the bucket the entry sits in, which works
// for tables of at least 1024 groups; the simulator also sweeps
// smaller tables, so it keeps the whole index. V, H, VSID and page
// index sit together, so a slot matches with one mask and compare.
// The hardware's R, C and PP bits are not kept: nothing the
// simulator measures reads them.
type PTE uint64

const (
	pteValid     PTE = 1 << 63
	pteHash      PTE = 1 << 62
	pteVPNShift      = 22
	pteVPN       PTE = (1<<(VSIDBits+PageIndexBits) - 1) << pteVPNShift
	pteRPNShift      = 2
	pteRPN       PTE = (1<<20 - 1) << pteRPNShift
	pteInhibited PTE = 1 << 1
	// pteKey covers what a search compares: V, H and the virtual page.
	pteKey = pteValid | pteHash | pteVPN
)

// NewPTE builds a valid entry translating vpn to rpn. hash is the H
// bit: whether the entry sits in vpn's secondary bucket.
func NewPTE(vpn VPN, rpn PFN, hash, inhibited bool) PTE {
	p := pteValid | PTE(vpn)<<pteVPNShift&pteVPN | PTE(rpn)<<pteRPNShift&pteRPN
	if hash {
		p |= pteHash
	}
	if inhibited {
		p |= pteInhibited
	}
	return p
}

// Key returns what a search for vpn through the given hash function
// compares each slot against: a valid entry's V, H and virtual page.
func Key(vpn VPN, hash bool) PTE {
	key := pteValid | PTE(vpn)<<pteVPNShift&pteVPN
	if hash {
		key |= pteHash
	}
	return key
}

// Matches reports whether the entry is the one a search for key finds
// — the hardware's compare, one mask and one compare.
func (p PTE) Matches(key PTE) bool { return p&pteKey == key }

// Valid reports the V bit.
func (p PTE) Valid() bool { return p&pteValid != 0 }

// Hash reports the H bit: the entry was placed with the secondary hash.
func (p PTE) Hash() bool { return p&pteHash != 0 }

// VPN returns the virtual page number the entry translates.
func (p PTE) VPN() VPN { return VPN(p & pteVPN >> pteVPNShift) }

// VSID returns the entry's virtual segment identifier.
func (p PTE) VSID() VSID { return p.VPN().VSID() }

// RPN returns the real page number.
func (p PTE) RPN() PFN { return PFN(p & pteRPN >> pteRPNShift) }

// Inhibited reports the cache-inhibited bit.
func (p PTE) Inhibited() bool { return p&pteInhibited != 0 }

// WithValid returns the entry with its V bit set to v and every other
// field kept: invalidation leaves the stale tag and frame in place.
func (p PTE) WithValid(v bool) PTE {
	if v {
		return p | pteValid
	}
	return p &^ pteValid
}

// WithRPN returns the entry with its real page number replaced.
func (p PTE) WithRPN(rpn PFN) PTE {
	return p&^pteRPN | PTE(rpn)<<pteRPNShift&pteRPN
}

// String renders the entry for debugging.
func (p PTE) String() string {
	v := " "
	if p.Valid() {
		v = "V"
	}
	h := " "
	if p.Hash() {
		h = "H"
	}
	return fmt.Sprintf("[%s%s vsid=%06x api=%04x rpn=%05x]", v, h, uint32(p.VSID()), p.VPN().PageIndex(), uint32(p.RPN()))
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
