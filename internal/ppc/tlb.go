package ppc

import (
	"fmt"

	"mmutricks/internal/arch"
)

// tlbValid marks a live entry's key. A VPN is 40 bits wide, so the top
// bit never collides with one, and a single compare of vpn|tlbValid
// against the key checks validity and tag together.
const tlbValid = 1 << 63

// TLBEntry is one translation held by the TLB: 16 bytes.
type TLBEntry struct {
	key       uint64 // vpn | tlbValid; 0 when invalid
	rpn       arch.PFN
	inhibited bool
	kernel    bool // translates a kernel address — for footprint stats
	// mru is kept in way 0 only and names the set's most recently used
	// way. It survives invalidation of way 0.
	mru uint8
}

// vpn returns the virtual page the entry translates (meaningful only
// while the entry is valid).
func (e *TLBEntry) vpn() arch.VPN { return arch.VPN(e.key &^ tlbValid) }

// tlbSet is one 2-way set.
type tlbSet [2]TLBEntry

// TLB is the set-associative translation lookaside buffer. Both the 603
// (128 entries) and 604 (256 entries) are 2-way set-associative indexed
// by the low bits of the effective page index, which is how the real
// parts index their TLBs, so 2-way is the only geometry built.
//
// Replacement is exact LRU without stamps: a fill takes the first
// invalid way, else the way that is not the set's MRU — the rule
// 64-bit recency stamps gave, since fresh stamps never tie.
type TLB struct {
	sets    []tlbSet
	setMask uint32
}

// NewTLB builds a TLB with the given total entry count and
// associativity. ways must be 2 and entries/ways a power of two.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways != len(tlbSet{}) || entries%ways != 0 {
		panic(fmt.Sprintf("ppc: bad TLB geometry %d/%d (the TLB is 2-way)", entries, ways))
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("ppc: TLB set count %d not a power of two", nsets))
	}
	return &TLB{sets: make([]tlbSet, nsets), setMask: uint32(nsets - 1)}
}

// Entries returns the total capacity.
func (t *TLB) Entries() int { return len(t.sets) * len(tlbSet{}) }

// find returns vpn's set and the way holding a valid translation for
// it (-1 when none does). Pure probe: no recency side effects.
func (t *TLB) find(vpn arch.VPN) (s *tlbSet, way int8) {
	s = &t.sets[vpn.PageIndex()&t.setMask]
	key := uint64(vpn) | tlbValid
	if s[0].key == key {
		return s, 0
	}
	if s[1].key == key {
		return s, 1
	}
	return s, -1
}

// Lookup searches for a translation of vpn. On a hit the way becomes
// its set's MRU; a miss has no side effects.
func (t *TLB) Lookup(vpn arch.VPN) (rpn arch.PFN, inhibited, ok bool) {
	s, way := t.find(vpn)
	if way < 0 {
		return 0, false, false
	}
	s[0].mru = uint8(way)
	return s[way].rpn, s[way].inhibited, true
}

// Insert installs a translation, evicting the set's LRU entry if full.
// kernel tags entries translating kernel addresses so the OS footprint
// (§5.1's 33%-of-slots measurement) can be read off the TLB. It reports
// whether a valid entry for a different page was displaced, so the
// tracer can see TLB pressure. It fills the way already holding vpn,
// else the first invalid way, else the way that is not MRU, and makes
// that way MRU.
func (t *TLB) Insert(vpn arch.VPN, rpn arch.PFN, inhibited, kernel bool) (evictedValid bool) {
	s, way := t.find(vpn)
	switch {
	case way >= 0:
	case s[0].key == 0:
		way = 0
	case s[1].key == 0:
		way = 1
	default:
		way = int8(s[0].mru ^ 1)
		evictedValid = true
	}
	// Field by field: a composite literal is built on the stack and
	// copied in with one wide load that cannot forward the narrow
	// stores just made.
	e := &s[way]
	e.key, e.rpn, e.inhibited, e.kernel = uint64(vpn)|tlbValid, rpn, inhibited, kernel
	s[0].mru = uint8(way)
	return evictedValid
}

// invalidate clears one entry, keeping way 0's MRU byte.
func (s *tlbSet) invalidate(way int8) {
	s[way] = TLBEntry{mru: s[way].mru}
}

// InvalidateVPN removes a single translation (the tlbie instruction).
func (t *TLB) InvalidateVPN(vpn arch.VPN) {
	if s, way := t.find(vpn); way >= 0 {
		s.invalidate(way)
	}
}

// InvalidateAll flushes the whole TLB (the tlbia instruction).
func (t *TLB) InvalidateAll() {
	for i := range t.sets {
		t.sets[i].invalidate(0)
		t.sets[i].invalidate(1)
	}
}

// Valid returns how many entries are currently valid.
func (t *TLB) Valid() int {
	n := 0
	t.each(func(*TLBEntry) { n++ })
	return n
}

// KernelEntries returns how many valid entries translate kernel
// addresses — the OS TLB footprint of §5.1.
func (t *TLB) KernelEntries() int {
	n := 0
	t.each(func(e *TLBEntry) {
		if e.kernel {
			n++
		}
	})
	return n
}

// ForEachValid calls fn for every valid entry in set order, way 0
// first; fn returning false stops the walk.
func (t *TLB) ForEachValid(fn func(vpn arch.VPN, rpn arch.PFN) bool) {
	for i := range t.sets {
		for w := range t.sets[i] {
			if e := &t.sets[i][w]; e.key != 0 && !fn(e.vpn(), e.rpn) {
				return
			}
		}
	}
}

// Snapshot returns the valid translations currently held, keyed by
// virtual page number — for tests and tools.
func (t *TLB) Snapshot() map[arch.VPN]arch.PFN {
	m := make(map[arch.VPN]arch.PFN)
	t.each(func(e *TLBEntry) { m[e.vpn()] = e.rpn })
	return m
}

// CountVSIDs returns how many valid entries belong to each VSID —
// useful for observing zombie translations lingering after a lazy
// flush.
func (t *TLB) CountVSIDs() map[arch.VSID]int {
	m := make(map[arch.VSID]int)
	t.each(func(e *TLBEntry) { m[e.vpn().VSID()]++ })
	return m
}

// each calls f on every valid entry, in set-major order.
func (t *TLB) each(f func(e *TLBEntry)) {
	for i := range t.sets {
		for w := range t.sets[i] {
			if e := &t.sets[i][w]; e.key != 0 {
				f(e)
			}
		}
	}
}
