package arch

import "testing"

// FuzzDecomposition checks the address arithmetic invariants over
// arbitrary inputs (run with `go test -fuzz=FuzzDecomposition`).
func FuzzDecomposition(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(0xC0000000), uint32(0xFFFFFF))
	f.Add(uint32(0x7FFFDFFC), uint32(0x123456))
	f.Fuzz(func(t *testing.T, ea32, vs uint32) {
		ea := EffectiveAddr(ea32)
		v := VSID(vs) & VSIDMask
		rebuilt := EffectiveAddr(uint32(ea.SegIndex())<<SegmentShift |
			ea.PageIndex()<<PageShift | ea.Offset())
		if rebuilt != ea {
			t.Fatalf("decomposition not lossless: %v != %v", rebuilt, ea)
		}
		va := Virtual(v, ea)
		if va.VSID() != v || va.PageIndex() != ea.PageIndex() || va.Offset() != ea.Offset() {
			t.Fatalf("virtual round trip failed for %v/%#x", ea, v)
		}
		vpn := VPNOf(v, ea)
		p := HashPrimary(vpn, DefaultHTABGroups)
		sx := HashSecondary(vpn, DefaultHTABGroups)
		if p < 0 || p >= DefaultHTABGroups || sx < 0 || sx >= DefaultHTABGroups || p == sx {
			t.Fatalf("hash out of range or not complementary: %d %d", p, sx)
		}
	})
}

// FuzzPTEEncoding checks the packed hash-table entry: every field
// round-trips, a valid entry matches exactly its own VSID, page index
// and H bit (flipping any one of those 41 bits misses), and an
// invalidated entry keeps its tag and frame but matches nothing. Run
// with `go test -fuzz=FuzzPTEEncoding`; the committed seeds cover each
// field at zero and at its maximum.
func FuzzPTEEncoding(f *testing.F) {
	f.Add(uint32(0), uint16(0), uint32(0), false, false)
	f.Add(uint32(0xFFFFFF), uint16(0xFFFF), uint32(0xFFFFF), true, true)
	f.Fuzz(func(t *testing.T, vs uint32, pi uint16, rpn32 uint32, hash, inhibited bool) {
		v := VSID(vs) & VSIDMask
		vpn := VPN(v)<<PageIndexBits | VPN(pi)
		rpn := PFN(rpn32 & 0xFFFFF)
		p := NewPTE(vpn, rpn, hash, inhibited)
		if !p.Valid() || p.VSID() != v || p.VPN().PageIndex() != uint32(pi) || p.VPN() != vpn ||
			p.RPN() != rpn || p.Hash() != hash || p.Inhibited() != inhibited {
			t.Fatalf("%v does not round-trip vsid %#x pi %#x rpn %#x H %v I %v", p, v, pi, rpn, hash, inhibited)
		}
		if !p.Matches(Key(vpn, hash)) {
			t.Fatalf("%v misses its own page", p)
		}
		for bit := 0; bit < VSIDBits+PageIndexBits; bit++ {
			if other := vpn ^ 1<<bit; p.Matches(Key(other, hash)) {
				t.Fatalf("%v matches %#x, its page with bit %d flipped", p, other, bit)
			}
		}
		if p.Matches(Key(vpn, !hash)) {
			t.Fatalf("%v matches its page under the other hash function", p)
		}
		if q := p.WithRPN(rpn ^ 1); q.RPN() != rpn^1 || q.WithRPN(rpn) != p {
			t.Fatalf("WithRPN on %v touched more than the frame: %v", p, q)
		}
		inv := p.WithValid(false)
		if inv.Valid() || inv.VPN() != vpn || inv.RPN() != rpn || inv.Hash() != hash || inv.Inhibited() != inhibited {
			t.Fatalf("invalidating %v lost a field: %v", p, inv)
		}
		if inv.Matches(Key(vpn, false)) || inv.Matches(Key(vpn, true)) {
			t.Fatalf("invalidated %v still matches", inv)
		}
		if inv.WithValid(true) != p {
			t.Fatalf("revalidating %v gives %v, want %v", inv, inv.WithValid(true), p)
		}
	})
}
