package ppc

import (
	"testing"
	"testing/quick"

	"mmutricks/internal/arch"
)

func TestTLBGeometry(t *testing.T) {
	tlb := NewTLB(128, 2)
	if tlb.Entries() != 128 {
		t.Fatalf("Entries = %d", tlb.Entries())
	}
	for _, g := range [][2]int{{0, 2}, {128, 0}, {127, 2}, {100, 3}, {128, 1}, {128, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTLB(%d,%d) should panic", g[0], g[1])
				}
			}()
			NewTLB(g[0], g[1])
		}()
	}
}

func TestTLBInsertLookup(t *testing.T) {
	tlb := NewTLB(128, 2)
	vpn := arch.VPNOf(0x42, 0x00400000)
	if _, _, ok := tlb.Lookup(vpn); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(vpn, 0x123, false, false)
	rpn, inh, ok := tlb.Lookup(vpn)
	if !ok || rpn != 0x123 || inh {
		t.Fatalf("lookup after insert: rpn=%v inh=%v ok=%v", rpn, inh, ok)
	}
	// Same page index, different VSID: must not match (this is the
	// property lazy flushing relies on, §7).
	other := arch.VPNOf(0x43, 0x00400000)
	if _, _, ok := tlb.Lookup(other); ok {
		t.Fatal("TLB matched a different VSID")
	}
}

func TestTLBReinsertUpdates(t *testing.T) {
	tlb := NewTLB(128, 2)
	vpn := arch.VPNOf(1, 0x1000)
	tlb.Insert(vpn, 10, false, false)
	tlb.Insert(vpn, 20, true, false)
	rpn, inh, ok := tlb.Lookup(vpn)
	if !ok || rpn != 20 || !inh {
		t.Fatal("reinsert should update in place")
	}
	if tlb.Valid() != 1 {
		t.Fatalf("duplicate entries after reinsert: %d", tlb.Valid())
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tlb := NewTLB(128, 2) // 64 sets; page index selects set
	// Three VPNs that collide in set 5 (page index ≡ 5 mod 64).
	mk := func(vsid arch.VSID) arch.VPN {
		return arch.VPNOf(vsid, arch.EffectiveAddr(5<<arch.PageShift))
	}
	a, b, c := mk(1), mk(2), mk(3)
	tlb.Insert(a, 1, false, false)
	tlb.Insert(b, 2, false, false)
	tlb.Lookup(a) // a is now MRU
	tlb.Insert(c, 3, false, false)
	if _, _, ok := tlb.Lookup(a); !ok {
		t.Fatal("MRU entry was evicted")
	}
	if _, _, ok := tlb.Lookup(b); ok {
		t.Fatal("LRU entry survived")
	}
	if _, _, ok := tlb.Lookup(c); !ok {
		t.Fatal("new entry missing")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(128, 2)
	vpn := arch.VPNOf(9, 0x2000)
	tlb.Insert(vpn, 1, false, false)
	tlb.InvalidateVPN(vpn)
	if _, _, ok := tlb.Lookup(vpn); ok {
		t.Fatal("InvalidateVPN left the entry")
	}
	tlb.Insert(vpn, 1, false, false)
	tlb.InvalidateAll()
	if tlb.Valid() != 0 {
		t.Fatal("InvalidateAll left entries")
	}
}

func TestTLBKernelFootprint(t *testing.T) {
	tlb := NewTLB(128, 2)
	tlb.Insert(arch.VPNOf(1, 0x00001000), 1, false, false)
	tlb.Insert(arch.VPNOf(0, 0xC0001000), 2, false, true)
	tlb.Insert(arch.VPNOf(0, 0xC0002000), 3, false, true)
	if got := tlb.KernelEntries(); got != 2 {
		t.Fatalf("KernelEntries = %d", got)
	}
	if got := tlb.Valid(); got != 3 {
		t.Fatalf("Valid = %d", got)
	}
}

func TestTLBCountVSIDs(t *testing.T) {
	tlb := NewTLB(128, 2)
	tlb.Insert(arch.VPNOf(7, 0x1000), 1, false, false)
	tlb.Insert(arch.VPNOf(7, 0x2000), 2, false, false)
	tlb.Insert(arch.VPNOf(8, 0x3000), 3, false, false)
	m := tlb.CountVSIDs()
	if m[7] != 2 || m[8] != 1 {
		t.Fatalf("CountVSIDs = %v", m)
	}
}

func TestTLBLookupAfterInsertProperty(t *testing.T) {
	tlb := NewTLB(256, 2)
	f := func(vsid arch.VSID, ea arch.EffectiveAddr, rpn arch.PFN) bool {
		vsid &= arch.VSIDMask
		rpn &= 0xFFFFF
		vpn := arch.VPNOf(vsid, ea)
		tlb.Insert(vpn, rpn, false, false)
		got, _, ok := tlb.Lookup(vpn)
		return ok && got == rpn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBValidNeverExceedsCapacity(t *testing.T) {
	tlb := NewTLB(128, 2)
	f := func(vsid arch.VSID, ea arch.EffectiveAddr) bool {
		tlb.Insert(arch.VPNOf(vsid&arch.VSIDMask, ea), 1, false, false)
		return tlb.Valid() <= 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
