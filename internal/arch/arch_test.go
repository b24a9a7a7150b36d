package arch

import (
	"testing"
	"testing/quick"
)

func TestEffectiveAddrDecomposition(t *testing.T) {
	// Figure 1 of the paper: 4-bit segment index, 16-bit page index,
	// 12-bit byte offset.
	cases := []struct {
		ea     EffectiveAddr
		seg    int
		pidx   uint32
		off    uint32
		kernel bool
	}{
		{0x00000000, 0, 0, 0, false},
		{0x00001234, 0, 1, 0x234, false},
		{0x10000000, 1, 0, 0, false},
		{0xC0000000, 12, 0, 0, true},
		{0xC0003ABC, 12, 3, 0xABC, true},
		{0xFFFFFFFF, 15, 0xFFFF, 0xFFF, true},
		{0x7FFFDFFC, 7, 0xFFFD, 0xFFC, false},
	}
	for _, c := range cases {
		if got := c.ea.SegIndex(); got != c.seg {
			t.Errorf("%v.SegIndex() = %d, want %d", c.ea, got, c.seg)
		}
		if got := c.ea.PageIndex(); got != c.pidx {
			t.Errorf("%v.PageIndex() = %#x, want %#x", c.ea, got, c.pidx)
		}
		if got := c.ea.Offset(); got != c.off {
			t.Errorf("%v.Offset() = %#x, want %#x", c.ea, got, c.off)
		}
		if got := c.ea.IsKernel(); got != c.kernel {
			t.Errorf("%v.IsKernel() = %v, want %v", c.ea, got, c.kernel)
		}
	}
}

func TestEffectiveAddrRecomposition(t *testing.T) {
	// seg<<28 | pageindex<<12 | offset must reproduce the address.
	f := func(ea EffectiveAddr) bool {
		rebuilt := EffectiveAddr(uint32(ea.SegIndex())<<SegmentShift |
			ea.PageIndex()<<PageShift | ea.Offset())
		return rebuilt == ea
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVirtualAddressComposition(t *testing.T) {
	// The 52-bit virtual address concatenates VSID, page index, offset.
	ea := EffectiveAddr(0x30004A5C)
	v := VSID(0xABCDEF)
	va := Virtual(v, ea)
	if va.VSID() != v {
		t.Errorf("VSID round trip: got %#x want %#x", va.VSID(), v)
	}
	if va.PageIndex() != ea.PageIndex() {
		t.Errorf("page index: got %#x want %#x", va.PageIndex(), ea.PageIndex())
	}
	if va.Offset() != ea.Offset() {
		t.Errorf("offset: got %#x want %#x", va.Offset(), ea.Offset())
	}
	if va.VPN() != VPNOf(v, ea) {
		t.Errorf("VPN mismatch: %#x vs %#x", va.VPN(), VPNOf(v, ea))
	}
}

func TestVirtualRoundTripProperty(t *testing.T) {
	f := func(v VSID, ea EffectiveAddr) bool {
		v &= VSIDMask
		va := Virtual(v, ea)
		vpn := VPNOf(v, ea)
		return va.VSID() == v && va.PageIndex() == ea.PageIndex() &&
			va.Offset() == ea.Offset() &&
			vpn.VSID() == v && vpn.PageIndex() == ea.PageIndex()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVSIDIsMasked(t *testing.T) {
	// VSIDs wider than 24 bits must be truncated, never leak into the
	// page index.
	va := Virtual(VSID(0xFFFFFFFF), 0)
	if va.VSID() != VSIDMask {
		t.Errorf("VSID not masked: %#x", va.VSID())
	}
	if va.PageIndex() != 0 || va.Offset() != 0 {
		t.Errorf("overflow leaked into low fields: %#x", uint64(va))
	}
}

func TestPhysAddrFrame(t *testing.T) {
	pa := PhysAddr(0x01FF3ABC)
	if pa.Frame() != PFN(0x01FF3) {
		t.Errorf("Frame() = %#x", uint32(pa.Frame()))
	}
	if pa.Offset() != 0xABC {
		t.Errorf("Offset() = %#x", pa.Offset())
	}
	if pa.Frame().Addr() != 0x01FF3000 {
		t.Errorf("Addr() = %v", pa.Frame().Addr())
	}
}

func TestPFNAddrRoundTrip(t *testing.T) {
	f := func(pa PhysAddr) bool {
		return pa.Frame().Addr()+PhysAddr(pa.Offset()) == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageBase(t *testing.T) {
	if got := EffectiveAddr(0x12345FFF).PageBase(); got != 0x12345000 {
		t.Errorf("PageBase = %v", got)
	}
	if got := EffectiveAddr(0x12345000).PageBase(); got != 0x12345000 {
		t.Errorf("PageBase of aligned = %v", got)
	}
}

func TestHashPrimaryInRange(t *testing.T) {
	f := func(vpn VPN) bool {
		p := HashPrimary(vpn, DefaultHTABGroups)
		s := HashSecondary(vpn, DefaultHTABGroups)
		return p >= 0 && p < DefaultHTABGroups && s >= 0 && s < DefaultHTABGroups
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSecondaryIsComplement(t *testing.T) {
	// The architecture defines the secondary hash as the one's
	// complement of the primary, so primary != secondary always (for
	// any table with more than one group).
	f := func(vpn VPN) bool {
		p := HashPrimary(vpn, DefaultHTABGroups)
		s := HashSecondary(vpn, DefaultHTABGroups)
		return p != s && s == (^p)&(DefaultHTABGroups-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashUsesVSIDForVariation(t *testing.T) {
	// The paper (§5.2): "the logical address spaces of processes tend
	// to be similar so the hash functions rely on the VSIDs to provide
	// variation." Distinct VSIDs at the same page index must often
	// land in distinct buckets.
	const trials = 1024
	same := 0
	base := VPNOf(1, 0x00400000)
	for i := 1; i < trials; i++ {
		v := VPNOf(VSID(i*7), 0x00400000)
		if HashPrimary(v, DefaultHTABGroups) == HashPrimary(base, DefaultHTABGroups) {
			same++
		}
	}
	if same > trials/16 {
		t.Errorf("VSID variation too weak: %d/%d collisions with base bucket", same, trials)
	}
}

func TestPTEMatches(t *testing.T) {
	vpn := VPNOf(0x123456, 0x00404000)
	p := NewPTE(vpn, 42, false, false)
	if !p.Matches(Key(vpn, false)) {
		t.Fatal("PTE should match its own VPN")
	}
	if p.VPN() != vpn {
		t.Fatalf("VPN() = %#x want %#x", p.VPN(), vpn)
	}
	other := VPNOf(0x123457, 0x00404000)
	if p.Matches(Key(other, false)) {
		t.Fatal("PTE must not match different VSID")
	}
	if p.Matches(Key(vpn, true)) {
		t.Fatal("primary PTE must not match a secondary search")
	}
	if p.WithValid(false).Matches(Key(vpn, false)) {
		t.Fatal("invalid PTE must never match")
	}
}

func TestPTEVPNRoundTrip(t *testing.T) {
	f := func(v VSID, ea EffectiveAddr, hash bool) bool {
		vpn := VPNOf(v&VSIDMask, ea)
		p := NewPTE(vpn, 0, hash, false)
		return p.VPN() == vpn && p.Matches(Key(vpn, hash))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHTABGeometry(t *testing.T) {
	// 2048 groups x 8 PTEs x 8 bytes = 128 KB, the table the paper
	// describes holding 16384 PTEs for a 32 MB machine.
	if DefaultHTABEntries != 16384 {
		t.Errorf("DefaultHTABEntries = %d, want 16384", DefaultHTABEntries)
	}
	if DefaultHTABGroups*PTEGSize*PTEBytes != 128*1024 {
		t.Errorf("table size = %d bytes, want 128 KB", DefaultHTABGroups*PTEGSize*PTEBytes)
	}
}

func TestStringFormats(t *testing.T) {
	if s := EffectiveAddr(0xC0000000).String(); s != "0xc0000000" {
		t.Errorf("EffectiveAddr.String() = %q", s)
	}
	if s := PhysAddr(0x1000).String(); s != "0x00001000" {
		t.Errorf("PhysAddr.String() = %q", s)
	}
	p := NewPTE(VPN(0x123)<<PageIndexBits|0x45, 0x678, false, false)
	if s := p.String(); s == "" {
		t.Error("PTE.String() empty")
	}
}
