package ppc

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
)

// countingBus records the accesses charged during table walks.
type countingBus struct {
	n         int
	inhibited int
	last      arch.PhysAddr
}

//mmutricks:noalloc
func (b *countingBus) MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool) {
	b.n++
	if inhibited {
		b.inhibited++
	}
	b.last = pa
}

func newTestHTAB() *HTAB { return NewHTAB(arch.DefaultHTABGroups, 0x200000) }

func TestHTABGeometryAndPanics(t *testing.T) {
	h := newTestHTAB()
	if h.Groups() != 2048 || h.Capacity() != 16384 {
		t.Fatalf("geometry: %d groups, %d capacity", h.Groups(), h.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two group count should panic")
		}
	}()
	NewHTAB(1000, 0)
}

func TestHTABInsertSearch(t *testing.T) {
	h := newTestHTAB()
	vpn := arch.VPNOf(0x1234, 0x00400000)
	out, _ := h.Insert(vpn, 0x55, false, nil, nil)
	if out != InsertFreeSlot {
		t.Fatalf("first insert outcome = %v", out)
	}
	pte, primary, acc := h.Search(vpn, nil)
	if pte == nil || pte.RPN != 0x55 {
		t.Fatal("search failed after insert")
	}
	if !primary {
		t.Fatal("first insert should land in the primary bucket")
	}
	if acc < 1 || acc > 8 {
		t.Fatalf("primary search took %d accesses", acc)
	}
}

func TestHTABSecondaryOverflow(t *testing.T) {
	h := newTestHTAB()
	// Fill the primary bucket of a target VPN with 8 colliding VPNs,
	// then insert one more: it must go to the secondary bucket and be
	// findable there.
	target := arch.VPNOf(1, 0x00400000)
	pg := arch.HashPrimary(target, h.Groups())
	inserted := 0
	// Find VPNs whose primary bucket is pg by varying the VSID.
	for v := arch.VSID(2); inserted < 8; v++ {
		vpn := arch.VPNOf(v, 0x00400000)
		if arch.HashPrimary(vpn, h.Groups()) == pg {
			h.Insert(vpn, arch.PFN(inserted), false, nil, nil)
			inserted++
		}
	}
	out, _ := h.Insert(target, 0x99, false, nil, nil)
	if out != InsertFreeSlot {
		t.Fatalf("overflow insert outcome = %v (secondary should have room)", out)
	}
	pte, primary, acc := h.Search(target, nil)
	if pte == nil || pte.RPN != 0x99 {
		t.Fatal("secondary search failed")
	}
	if primary {
		t.Fatal("entry should be in the secondary bucket")
	}
	if acc <= 8 || acc > 16 {
		t.Fatalf("secondary search took %d accesses, want 9..16", acc)
	}
	if !pte.Hash {
		t.Fatal("secondary entries must carry the H bit")
	}
}

func TestHTABSearchMissCosts16(t *testing.T) {
	h := newTestHTAB()
	var bus countingBus
	pte, _, acc := h.Search(arch.VPNOf(7, 0x00001000), &bus)
	if pte != nil {
		t.Fatal("empty table matched")
	}
	if acc != 16 || bus.n != 16 {
		t.Fatalf("miss search: %d accesses, bus %d — the paper's worst case is 16", acc, bus.n)
	}
}

func TestHTABEvictionWhenBothBucketsFull(t *testing.T) {
	h := NewHTAB(2, 0) // tiny table: 2 groups of 8 = 16 PTEs
	// With 2 groups, primary and secondary are always the two distinct
	// groups, so 16 inserts fill the whole table.
	var vpns []arch.VPN
	for v := arch.VSID(1); len(vpns) < 16; v++ {
		vpn := arch.VPNOf(v, 0x1000)
		out, _ := h.Insert(vpn, arch.PFN(v), false, nil, nil)
		if out != InsertFreeSlot {
			t.Fatalf("insert %d evicted too early", len(vpns))
		}
		vpns = append(vpns, vpn)
	}
	if h.Occupancy() != 16 {
		t.Fatalf("occupancy = %d", h.Occupancy())
	}
	out, _ := h.Insert(arch.VPNOf(0x999, 0x1000), 0xAA, false, nil, nil)
	if out != InsertEvictLive {
		t.Fatalf("full-table insert outcome = %v, want eviction", out)
	}
	if h.Occupancy() != 16 {
		t.Fatal("eviction must not change occupancy")
	}
}

func TestHTABEvictionZombieClassification(t *testing.T) {
	h := NewHTAB(2, 0)
	for v := arch.VSID(1); v <= 16; v++ {
		h.Insert(arch.VPNOf(v, 0x1000), arch.PFN(v), false, nil, nil)
	}
	// Every resident VSID is zombie.
	allZombie := func(arch.VSID) bool { return true }
	out, _ := h.Insert(arch.VPNOf(0x999, 0x1000), 1, false, nil, allZombie)
	if out != InsertEvictZombie {
		t.Fatalf("outcome = %v, want zombie eviction", out)
	}
}

func TestHTABFlushVPN(t *testing.T) {
	h := newTestHTAB()
	vpn := arch.VPNOf(3, 0x00002000)
	h.Insert(vpn, 9, false, nil, nil)
	var bus countingBus
	found, acc := h.FlushVPN(vpn, &bus)
	if !found {
		t.Fatal("flush did not find the entry")
	}
	if acc < 2 {
		t.Fatalf("flush accesses = %d", acc)
	}
	if pte, _, _ := h.Search(vpn, nil); pte != nil {
		t.Fatal("entry still matches after flush")
	}
	// Flushing a missing entry costs the full 16-access search — the
	// §7 pain point.
	found, acc = h.FlushVPN(arch.VPNOf(0xBEEF, 0x5000), nil)
	if found || acc != 16 {
		t.Fatalf("missing flush: found=%v acc=%d", found, acc)
	}
}

// TestFlushVPNStoreChargedAtTableBase pins a known bug: FlushVPN
// charges its invalidating store at the table's base (PTEG 0, slot 0),
// not at the flushed entry's own address as its comment says. Fixing
// it changes the counter checksums and bench/mmubench/golden.json, so
// the fix waits for a change allowed to re-pin both (ROADMAP open item
// 7), and must flip this test.
func TestFlushVPNStoreChargedAtTableBase(t *testing.T) {
	h := newTestHTAB()
	vpn := arch.VPNOf(3, 0x00002000)
	h.Insert(vpn, 9, false, nil, nil)
	pg := arch.HashPrimary(vpn, h.Groups())
	if pg == 0 {
		t.Fatal("the entry must live outside PTEG 0 for the store address to tell")
	}
	var bus countingBus
	if found, _ := h.FlushVPN(vpn, &bus); !found {
		t.Fatal("flush did not find the entry")
	}
	if bus.last != h.EntryAddr(0, 0) {
		t.Fatalf("invalidating store charged at %#x, want the table base %#x (the entry is at %#x)",
			bus.last, h.EntryAddr(0, 0), h.EntryAddr(pg, 0))
	}
}

func TestHTABReclaimScan(t *testing.T) {
	h := newTestHTAB()
	live := arch.VSID(1)
	dead := arch.VSID(2)
	for i := 0; i < 50; i++ {
		h.Insert(arch.VPNOf(live, arch.EffectiveAddr(i<<arch.PageShift)), arch.PFN(i), false, nil, nil)
		h.Insert(arch.VPNOf(dead, arch.EffectiveAddr(i<<arch.PageShift)), arch.PFN(i), false, nil, nil)
	}
	isZombie := func(v arch.VSID) bool { return v == dead }
	if got := h.LiveOccupancy(isZombie); got != 50 {
		t.Fatalf("LiveOccupancy = %d", got)
	}
	// Sweep the whole table in two halves.
	next, n1 := h.ReclaimScan(0, h.Groups()/2, nil, isZombie)
	if next != h.Groups()/2 {
		t.Fatalf("next = %d", next)
	}
	_, n2 := h.ReclaimScan(next, h.Groups()/2, nil, isZombie)
	if n1+n2 != 50 {
		t.Fatalf("reclaimed %d zombies, want 50", n1+n2)
	}
	if h.Occupancy() != 50 {
		t.Fatalf("occupancy after reclaim = %d, want 50 live", h.Occupancy())
	}
	// Nil zombie classifier: no-op.
	if _, n := h.ReclaimScan(0, h.Groups(), nil, nil); n != 0 {
		t.Fatal("nil classifier reclaimed entries")
	}
}

func TestHTABOccupancyHistogram(t *testing.T) {
	h := newTestHTAB()
	vpn := arch.VPNOf(1, 0x1000)
	h.Insert(vpn, 1, false, nil, nil)
	hist := h.OccupancyHistogram()
	if hist.Total() != uint64(h.Groups()) {
		t.Fatalf("histogram total = %d", hist.Total())
	}
	if hist.Buckets[1] != 1 || hist.Buckets[0] != uint64(h.Groups()-1) {
		t.Fatalf("histogram = %v...", hist.Buckets)
	}
}

func TestHTABInhibitedAccesses(t *testing.T) {
	h := newTestHTAB()
	h.SetInhibited(true)
	var bus countingBus
	h.Search(arch.VPNOf(1, 0x1000), &bus)
	if bus.inhibited != bus.n || bus.n == 0 {
		t.Fatalf("inhibited table should make inhibited accesses: %d/%d", bus.inhibited, bus.n)
	}
}

func TestHTABInvalidateAll(t *testing.T) {
	h := newTestHTAB()
	h.Insert(arch.VPNOf(1, 0x1000), 1, false, nil, nil)
	h.InvalidateAll()
	if h.Occupancy() != 0 {
		t.Fatal("InvalidateAll left valid entries")
	}
}

func TestHTABEntryAddrDistinct(t *testing.T) {
	h := newTestHTAB()
	seen := map[arch.PhysAddr]bool{}
	for g := 0; g < 4; g++ {
		for s := 0; s < arch.PTEGSize; s++ {
			a := h.EntryAddr(g, s)
			if seen[a] {
				t.Fatalf("duplicate entry address %v", a)
			}
			seen[a] = true
		}
	}
	if h.EntryAddr(0, 1)-h.EntryAddr(0, 0) != arch.PTEBytes {
		t.Fatal("PTE stride wrong")
	}
}
