package machine

import (
	"testing"

	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
)

func TestNewWiresEverything(t *testing.T) {
	m := New(clock.PPC604At185())
	if m.MMU == nil || m.MMU.HTAB == nil || m.MMU.TLB == nil {
		t.Fatal("MMU not wired")
	}
	if m.MMU.TLB.Entries() != 256 {
		t.Fatalf("604 TLB entries = %d", m.MMU.TLB.Entries())
	}
	if m.ICache.LineSize() != 32 || m.DCache.Sets() == 0 {
		t.Fatal("caches not built")
	}
	// The hash table must live above the kernel image.
	if m.Mem.Layout().HTABBase == 0 {
		t.Fatal("HTAB at physical zero would overlay the kernel")
	}
}

// TestNewAllocs pins what building a machine allocates, so a second
// instrumentation struct (a phase ledger beside the tracer's, say)
// cannot come back unseen. A change that moves the count must say why.
func TestNewAllocs(t *testing.T) {
	const want = 19
	if n := testing.AllocsPerRun(20, func() { New(clock.PPC604At185()) }); n != want {
		t.Fatalf("machine.New allocates %.0f times, want %d", n, want)
	}
}

func TestMemAccessCosts(t *testing.T) {
	m := New(clock.PPC604At185())
	lat := clock.Cycles(m.Model.MemLatency)

	m.MemAccess(0x100000, cache.ClassKernelData, false, false) // miss
	if m.Led.Now() != 1+lat {
		t.Fatalf("miss cost = %d, want %d", m.Led.Now(), 1+lat)
	}
	c0 := m.Led.Now()
	m.MemAccess(0x100000, cache.ClassKernelData, false, false) // hit
	if m.Led.Now()-c0 != 1 {
		t.Fatalf("hit cost = %d, want 1", m.Led.Now()-c0)
	}
	c0 = m.Led.Now()
	m.MemAccess(0x200000, cache.ClassIdle, true, false) // inhibited
	if m.Led.Now()-c0 != lat {
		t.Fatalf("inhibited cost = %d, want %d", m.Led.Now()-c0, lat)
	}
	if m.DCache.Contains(0x200000) {
		t.Fatal("inhibited access filled the cache")
	}
}

func TestFetchCosts(t *testing.T) {
	m := New(clock.PPC603At180())
	lat := clock.Cycles(m.Model.MemLatency)
	m.Fetch(0x1000, cache.ClassKernelText, false) // miss
	if m.Led.Now() != lat {
		t.Fatalf("fetch miss = %d, want %d", m.Led.Now(), lat)
	}
	c0 := m.Led.Now()
	m.Fetch(0x1000, cache.ClassKernelText, false) // hit: free
	if m.Led.Now() != c0 {
		t.Fatal("fetch hit should be free")
	}
	// Instruction and data caches are split: a D access to the same
	// address still misses.
	if m.DCache.Contains(0x1000) {
		t.Fatal("I fetch leaked into D cache")
	}
}

func TestReset(t *testing.T) {
	m := New(clock.PPC604At185())
	m.MemAccess(0x100000, cache.ClassUser, false, false)
	m.MMU.SetSegment(0, 5)
	m.MMU.Translate(0x1000, false) // populates counters
	m.Reset()
	if m.DCache.Contains(0x100000) {
		t.Fatal("Reset left cache lines")
	}
	if m.Mon.TLBMisses != 0 && m.Mon.HashMissFaults != 0 {
		t.Fatal("Reset left counters")
	}
	if m.MMU.Segment(0) != 5 {
		t.Fatal("Reset should preserve segment registers")
	}
}
