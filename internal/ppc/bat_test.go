package ppc

import (
	"testing"
	"testing/quick"

	"mmutricks/internal/arch"
)

func TestBATCoversAndTranslates(t *testing.T) {
	var a BATArray
	// A 4 MB block mapping the kernel: 0xC0000000 -> physical 0.
	err := a.Set(0, BATEntry{Valid: true, Base: 0xC0000000, Len: 4 << 20, Phys: 0})
	if err != nil {
		t.Fatal(err)
	}
	pa, inh, ok := a.Lookup(0xC0123456)
	if !ok || inh || pa != 0x00123456 {
		t.Fatalf("lookup: pa=%v inh=%v ok=%v", pa, inh, ok)
	}
	if _, _, ok := a.Lookup(0xC0400000); ok {
		t.Fatal("address past block end should not match")
	}
	if _, _, ok := a.Lookup(0xBFFFFFFF); ok {
		t.Fatal("address before block should not match")
	}
}

func TestBATValidation(t *testing.T) {
	var a BATArray
	cases := []BATEntry{
		{Valid: true, Base: 0, Len: 64 << 10, Phys: 0},        // too small
		{Valid: true, Base: 0, Len: 3 << 20, Phys: 0},         // not pow2
		{Valid: true, Base: 0x10000, Len: 128 << 10, Phys: 0}, // base misaligned
		{Valid: true, Base: 0, Len: 128 << 10, Phys: 0x10000}, // phys misaligned
	}
	for i, e := range cases {
		if err := a.Set(0, e); err == nil {
			t.Errorf("case %d: invalid BAT accepted: %+v", i, e)
		}
	}
	if err := a.Set(-1, BATEntry{}); err == nil {
		t.Error("negative index accepted")
	}
	if err := a.Set(NumBATs, BATEntry{}); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Invalid entries need no alignment.
	if err := a.Set(0, BATEntry{Valid: false, Len: 3}); err != nil {
		t.Errorf("clearing a BAT should always work: %v", err)
	}
}

func TestBATInhibitedFlag(t *testing.T) {
	var a BATArray
	if err := a.Set(1, BATEntry{Valid: true, Base: 0xF0000000, Len: 1 << 20, Phys: 0x01F00000, Inhibited: true}); err != nil {
		t.Fatal(err)
	}
	_, inh, ok := a.Lookup(0xF00FF000)
	if !ok || !inh {
		t.Fatal("I/O BAT should hit with inhibited set")
	}
}

func TestBATClear(t *testing.T) {
	var a BATArray
	_ = a.Set(0, BATEntry{Valid: true, Base: 0xC0000000, Len: 4 << 20, Phys: 0})
	a.Clear()
	if _, _, ok := a.Lookup(0xC0000000); ok {
		t.Fatal("Clear left a valid mapping")
	}
	if a.Get(0).Valid {
		t.Fatal("Get shows valid after Clear")
	}
}

func TestBATTranslationIsOffsetPreserving(t *testing.T) {
	var a BATArray
	_ = a.Set(0, BATEntry{Valid: true, Base: 0xC0000000, Len: 8 << 20, Phys: 0})
	f := func(off uint32) bool {
		off &= (8 << 20) - 1
		ea := arch.EffectiveAddr(0xC0000000 + off)
		pa, _, ok := a.Lookup(ea)
		return ok && pa == arch.PhysAddr(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBATLookupMatchesScan checks Lookup, which rejects an address
// whose segment no valid block overlaps before comparing, against a
// plain scan of all four registers' Covers, at probe addresses in
// every segment and at every block's edges, after each step of a
// sequence of Set and Clear calls.
func TestBATLookupMatchesScan(t *testing.T) {
	type set struct {
		i int
		e BATEntry
	}
	steps := []struct {
		name string
		sets []set
		clr  bool
	}{
		{name: "128 KB block", sets: []set{{0, BATEntry{Valid: true, Base: 0xC0000000, Len: 128 << 10, Phys: 0x20000}}}},
		{name: "256 MB block", sets: []set{{1, BATEntry{Valid: true, Base: 0x30000000, Len: 256 << 20}}}},
		{name: "512 MB block spanning two segments", sets: []set{{2, BATEntry{Valid: true, Base: 0x40000000, Len: 512 << 20, Inhibited: true}}}},
		{name: "block ending at 0xFFFFFFFF", sets: []set{{3, BATEntry{Valid: true, Base: 0xFFFE0000, Len: 128 << 10, Phys: 0x40000}}}},
		{name: "2 GB block ending at 0xFFFFFFFF", sets: []set{{3, BATEntry{Valid: true, Base: 0x80000000, Len: 1 << 31}}}},
		{name: "register reprogrammed to another segment", sets: []set{{1, BATEntry{Valid: true, Base: 0x10000000, Len: 1 << 20}}}},
		{name: "register set invalid", sets: []set{{2, BATEntry{Base: 0x40000000, Len: 512 << 20}}}},
		{name: "clear", clr: true},
		{name: "after clear", sets: []set{{0, BATEntry{Valid: true, Base: 0x00000000, Len: 8 << 20}}}},
	}
	var a BATArray
	for _, st := range steps {
		for _, s := range st.sets {
			if err := a.Set(s.i, s.e); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		if st.clr {
			a.Clear()
		}
		var probes []arch.EffectiveAddr
		for seg := uint32(0); seg < arch.NumSegments; seg++ {
			base := seg << arch.SegmentShift
			probes = append(probes, arch.EffectiveAddr(base), arch.EffectiveAddr(base+0x0800_0000), arch.EffectiveAddr(base+0x0FFF_FFFF))
		}
		for i := 0; i < NumBATs; i++ {
			e := a.Get(i)
			probes = append(probes, e.Base, e.Base-1, e.Base+arch.EffectiveAddr(e.Len-1), e.Base+arch.EffectiveAddr(e.Len))
		}
		for _, ea := range probes {
			var want arch.PhysAddr
			var wantInh, wantOK bool
			for i := 0; i < NumBATs; i++ {
				if e := a.Get(i); e.Covers(ea) {
					want, wantInh, wantOK = e.Translate(ea), e.Inhibited, true
					break
				}
			}
			if pa, inh, ok := a.Lookup(ea); pa != want || inh != wantInh || ok != wantOK {
				t.Errorf("%s: Lookup(%v) = (%v, %v, %v), scan (%v, %v, %v)", st.name, ea, pa, inh, ok, want, wantInh, wantOK)
			}
		}
	}
}
