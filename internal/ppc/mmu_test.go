package ppc

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/mmtrace"
)

func newTestMMU(model clock.CPUModel) (*MMU, *countingBus, *hwmon.Counters, *clock.Ledger) {
	bus := &countingBus{}
	mon := &hwmon.Counters{}
	led := clock.NewLedger(model.MHz)
	htab := NewHTAB(arch.DefaultHTABGroups, 0x200000)
	m := NewMMU(model, htab, led, bus, mmtrace.NewTracer(led, mon, 0))
	return m, bus, mon, led
}

func TestTranslateViaBAT(t *testing.T) {
	m, _, mon, led := newTestMMU(clock.PPC604At185())
	if err := m.DBAT.Set(0, BATEntry{Valid: true, Base: 0xC0000000, Len: 4 << 20, Phys: 0}); err != nil {
		t.Fatal(err)
	}
	r := m.Translate(0xC0001234, false)
	if r.Fault != FaultNone || !r.ViaBAT || r.PA != 0x00001234 {
		t.Fatalf("BAT translate: %+v", r)
	}
	if mon.BATHits != 1 || mon.TLBMisses != 0 {
		t.Fatalf("counters: %+v", mon)
	}
	if led.Now() != 0 {
		t.Fatal("BAT hit should cost no cycles")
	}
	// Instruction-side lookup must use the IBATs, which are clear.
	r = m.Translate(0xC0001234, true)
	if r.ViaBAT {
		t.Fatal("instruction fetch hit a data BAT")
	}
}

func TestTranslate603FaultsToSoftware(t *testing.T) {
	m, _, mon, _ := newTestMMU(clock.PPC603At180())
	m.SetSegment(0, 0x42)
	r := m.Translate(0x00001000, false)
	if r.Fault != FaultTLBMiss {
		t.Fatalf("603 miss should fault to software, got %v", r.Fault)
	}
	if r.VPN != arch.VPNOf(0x42, 0x00001000) {
		t.Fatalf("fault VPN = %#x", r.VPN)
	}
	if mon.TLBMisses != 1 || mon.HardwareWalks != 0 {
		t.Fatalf("counters: %+v", mon)
	}
	// Software (the kernel) loads the TLB and retries.
	m.TLB.Insert(r.VPN, 0x77, false, false)
	r = m.Translate(0x00001234, false)
	if r.Fault != FaultNone || r.PA != 0x77000+0x234 {
		t.Fatalf("after reload: %+v", r)
	}
	if mon.TLBHits != 1 {
		t.Fatal("TLB hit not counted")
	}
}

func TestTranslate604HardwareWalk(t *testing.T) {
	m, bus, mon, led := newTestMMU(clock.PPC604At185())
	m.SetSegment(0, 0x42)
	vpn := arch.VPNOf(0x42, 0x00001000)
	m.HTAB.Insert(vpn, 0x88, false, nil, nil)

	r := m.Translate(0x00001400, false)
	if r.Fault != FaultNone || r.PA != 0x88000+0x400 {
		t.Fatalf("hardware walk: %+v", r)
	}
	if mon.HardwareWalks != 1 || mon.HTABHits != 1 || mon.HTABPrimaryHits != 1 {
		t.Fatalf("counters: %+v", mon)
	}
	if bus.n == 0 {
		t.Fatal("hardware walk made no memory accesses")
	}
	if led.Now() == 0 {
		t.Fatal("hardware walk should cost cycles")
	}
	// The walk loads the TLB: next access hits for free.
	c0 := led.Now()
	r = m.Translate(0x00001800, false)
	if r.Fault != FaultNone || mon.TLBHits != 1 {
		t.Fatalf("TLB not loaded by walk: %+v", r)
	}
	if led.Now() != c0 {
		t.Fatal("TLB hit should cost no cycles")
	}
}

func TestTranslate604HashMissFault(t *testing.T) {
	m, _, mon, led := newTestMMU(clock.PPC604At185())
	m.SetSegment(0, 0x42)
	r := m.Translate(0x00001000, false)
	if r.Fault != FaultHashMiss {
		t.Fatalf("expected hash-miss fault, got %v", r.Fault)
	}
	if mon.HTABMisses != 1 || mon.HashMissFaults != 1 {
		t.Fatalf("counters: %+v", mon)
	}
	// At least the 91-cycle interrupt cost plus the 16-access walk.
	min := clock.Cycles(clock.PPC604At185().HashMissInterrupt)
	if led.Now() < min {
		t.Fatalf("hash miss cost %d cycles, want >= %d", led.Now(), min)
	}
}

func TestSegmentRegistersSelectVSID(t *testing.T) {
	m, _, _, _ := newTestMMU(clock.PPC603At180())
	m.SetSegment(3, 0x111)
	m.SetSegment(4, 0x222)
	if m.Segment(3) != 0x111 {
		t.Fatal("segment readback failed")
	}
	a := m.VPNFor(0x30000000)
	b := m.VPNFor(0x40000000)
	if a.VSID() != 0x111 || b.VSID() != 0x222 {
		t.Fatalf("VPNs: %#x %#x", a, b)
	}
	// Changing the segment register changes the VPN — the mechanism
	// behind lazy context flushing (§7).
	m.SetSegment(3, 0x333)
	if m.VPNFor(0x30000000).VSID() != 0x333 {
		t.Fatal("segment change did not change VPN")
	}
}

func TestVSIDMaskedInSegment(t *testing.T) {
	m, _, _, _ := newTestMMU(clock.PPC603At180())
	m.SetSegment(0, 0xFFFFFFF)
	if m.Segment(0) != arch.VSIDMask {
		t.Fatal("segment register must mask to 24 bits")
	}
}

func TestProbe(t *testing.T) {
	m, _, mon, led := newTestMMU(clock.PPC604At185())
	m.SetSegment(0, 0x42)
	if _, ok := m.Probe(0x00001000, false); ok {
		t.Fatal("probe hit with nothing mapped")
	}
	m.HTAB.Insert(arch.VPNOf(0x42, 0x00001000), 0x88, false, nil, nil)
	pa, ok := m.Probe(0x00001555, false)
	if !ok || pa != 0x88555 {
		t.Fatalf("probe: pa=%v ok=%v", pa, ok)
	}
	if mon.TLBMisses != 0 || led.Now() != 0 {
		t.Fatal("Probe must not charge cycles or counters")
	}
	if err := m.IBAT.Set(0, BATEntry{Valid: true, Base: 0xC0000000, Len: 4 << 20, Phys: 0}); err != nil {
		t.Fatal(err)
	}
	if pa, ok := m.Probe(0xC0000040, true); !ok || pa != 0x40 {
		t.Fatal("probe via IBAT failed")
	}
}

func TestKernelTLBEntriesTagged(t *testing.T) {
	m, _, _, _ := newTestMMU(clock.PPC604At185())
	m.SetSegment(0xC, 0x7)
	vpn := m.VPNFor(0xC0400000)
	m.HTAB.Insert(vpn, 0x99, false, nil, nil)
	if r := m.Translate(0xC0400000, false); r.Fault != FaultNone {
		t.Fatalf("translate: %+v", r)
	}
	if m.TLB.KernelEntries() != 1 {
		t.Fatal("kernel translation not tagged in TLB")
	}
}
