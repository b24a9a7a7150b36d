package machine

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
)

func TestOptionsHTABGroups(t *testing.T) {
	m := NewWithOptions(clock.PPC604At185(), Options{HTABGroups: 512})
	if m.MMU.HTAB.Groups() != 512 {
		t.Fatalf("groups = %d", m.MMU.HTAB.Groups())
	}
	// The reserved layout shrinks with the table.
	if m.Mem.Layout().HTABBytes != 512*8*8 {
		t.Fatalf("HTAB bytes = %d", m.Mem.Layout().HTABBytes)
	}
	// Default still the architected table.
	if New(clock.PPC604At185()).MMU.HTAB.Groups() != 2048 {
		t.Fatal("default group count changed")
	}
}

func TestSplitTLBOption(t *testing.T) {
	model := clock.PPC603At180()
	model.SplitTLB = true
	m := New(model)
	if m.MMU.ITLB == m.MMU.TLB {
		t.Fatal("split TLB not split")
	}
	if m.MMU.ITLB.Entries()+m.MMU.TLB.Entries() != 128 {
		t.Fatal("split halves don't sum to the part's capacity")
	}
	// Reset must clear both.
	m.MMU.SetSegment(0, 1)
	m.MMU.ITLB.Insert(1, 1, false, false)
	m.MMU.TLB.Insert(2, 2, false, false)
	m.Reset()
	if m.MMU.ITLB.Valid()+m.MMU.TLB.Valid() != 0 {
		t.Fatal("Reset left split TLB entries")
	}
}

func TestCacheLockCosts(t *testing.T) {
	m := New(clock.PPC604At185())
	lat := clock.Cycles(m.Model.MemLatency)
	m.SetCacheLock(true)
	c0 := m.Led.Now()
	m.MemAccess(0x100000, cache.ClassIdle, false, false) // miss, locked
	if m.Led.Now()-c0 != lat {
		t.Fatalf("locked miss cost = %d, want %d", m.Led.Now()-c0, lat)
	}
	if m.DCache.Contains(0x100000) {
		t.Fatal("locked miss allocated a line")
	}
	m.SetCacheLock(false)
	m.MemAccess(0x100000, cache.ClassUser, false, false) // normal fill
	m.SetCacheLock(true)
	c0 = m.Led.Now()
	m.MemAccess(0x100000, cache.ClassUser, false, false) // locked hit
	if m.Led.Now()-c0 != 1 {
		t.Fatalf("locked hit cost = %d, want 1", m.Led.Now()-c0)
	}
}

func TestPrefetchCost(t *testing.T) {
	m := New(clock.PPC604At185())
	c0 := m.Led.Now()
	m.Prefetch(0x4000, cache.ClassKernelData)
	if m.Led.Now()-c0 != 2 {
		t.Fatalf("prefetch cost = %d, want 2 (issue only)", m.Led.Now()-c0)
	}
	if !m.DCache.Contains(0x4000) {
		t.Fatal("prefetch did not fill the line")
	}
	// The subsequent access hits at full speed.
	c0 = m.Led.Now()
	m.MemAccess(0x4000, cache.ClassKernelData, false, false)
	if m.Led.Now()-c0 != 1 {
		t.Fatalf("post-prefetch access cost = %d, want 1", m.Led.Now()-c0)
	}
}

func TestCastoutCost(t *testing.T) {
	m := New(clock.PPC604At185())
	lat := clock.Cycles(m.Model.MemLatency)
	stride := arch.PhysAddr(m.DCache.Sets() * m.DCache.LineSize())
	// Dirty a full set.
	for i := 0; i < cache.Ways; i++ {
		m.MemAccess(0x100000+arch.PhysAddr(i)*stride, cache.ClassUser, false, true)
	}
	c0 := m.Led.Now()
	m.MemAccess(0x100000+cache.Ways*stride, cache.ClassUser, false, false)
	if got := m.Led.Now() - c0; got != 1+2*lat {
		t.Fatalf("miss-with-castout cost = %d, want %d", got, 1+2*lat)
	}
}
