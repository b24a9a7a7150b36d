package ppc

import (
	"slices"
	"testing"
	"unsafe"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
)

// countingBus records the accesses charged during table walks.
type countingBus struct {
	n         int
	inhibited int
	last      arch.PhysAddr
}

func (b *countingBus) MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool) {
	b.n++
	if inhibited {
		b.inhibited++
	}
	b.last = pa
}

func newTestHTAB() *HTAB { return NewHTAB(arch.DefaultHTABGroups, 0x200000) }

// zombieFunc adapts a predicate to Zombies.
type zombieFunc func(arch.VSID) bool

func (f zombieFunc) ZombieVSID(v arch.VSID) bool { return f(v) }

// TestHTABSlotIsArchitectedWidth pins the host footprint of a slot to
// the width the cache model charges for it, so a PTEG is one 64-byte
// host line as it is one line of the simulated table.
func TestHTABSlotIsArchitectedWidth(t *testing.T) {
	h := newTestHTAB()
	if got := unsafe.Sizeof(h.ptes[0]); got != arch.PTEBytes {
		t.Fatalf("HTAB slot is %d bytes on the host, want arch.PTEBytes = %d", got, arch.PTEBytes)
	}
	if got := unsafe.Sizeof([arch.PTEGSize]arch.PTE{}); got != 64 {
		t.Fatalf("a PTEG is %d bytes on the host, want one 64-byte line", got)
	}
}

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
	if pte == nil || pte.RPN() != 0x55 {
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
	if pte == nil || pte.RPN() != 0x99 {
		t.Fatal("secondary search failed")
	}
	if primary {
		t.Fatal("entry should be in the secondary bucket")
	}
	if acc <= 8 || acc > 16 {
		t.Fatalf("secondary search took %d accesses, want 9..16", acc)
	}
	if !pte.Hash() {
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
	allZombie := zombieFunc(func(arch.VSID) bool { return true })
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
// the fix waits for a change allowed to re-pin both (ROADMAP item 1),
// and must flip this test.
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
	isZombie := zombieFunc(func(v arch.VSID) bool { return v == dead })
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

// The fault injector's PTE scans start at the group the random word
// selects, wrap past the last group, and skip both buckets of the page
// being translated. With one eligible group, every start must find it,
// whatever the word's high bits, and leave the avoided buckets alone.
func TestInjectedPTEScanWraps(t *testing.T) {
	const groups = 16
	avoid := arch.VPNOf(3, 0x5000)
	pg, sg := arch.HashPrimary(avoid, groups), arch.HashSecondary(avoid, groups)
	target := (max(pg, sg) + 3) % groups
	if target == pg || target == sg {
		t.Fatalf("target group %d is one of the avoided buckets %d, %d", target, pg, sg)
	}
	victim := arch.VPNOf(7, arch.EffectiveAddr(target)<<arch.PageShift)
	scans := []struct {
		name  string
		valid bool // whether the planted entries are valid (corrupt) or stale (resurrect)
		scan  func(h *HTAB, rnd uint64) (int, int, arch.VPN, bool)
	}{
		{"CorruptPTE", true, func(h *HTAB, rnd uint64) (int, int, arch.VPN, bool) { return h.CorruptPTE(rnd, avoid) }},
		{"ResurrectPTE", false, func(h *HTAB, rnd uint64) (int, int, arch.VPN, bool) { return h.ResurrectPTE(rnd, avoid) }},
	}
	for _, sc := range scans {
		for start := 0; start < groups; start++ {
			h := NewHTAB(groups, 0x200000)
			for _, g := range []int{pg, sg} {
				h.place(g, 0, arch.VPNOf(9, arch.EffectiveAddr(g)<<arch.PageShift), 0x40, false, false)
				h.bucket(g)[0] = h.bucket(g)[0].WithValid(sc.valid)
			}
			h.place(target, 2, victim, 0x40, false, false)
			h.bucket(target)[2] = h.bucket(target)[2].WithValid(sc.valid)
			g, s, vpn, ok := sc.scan(h, 1<<40|uint64(start))
			if !ok || g != target || s != 2 || vpn != victim {
				t.Fatalf("%s from group %d: group %d slot %d vpn %v ok %v; want group %d slot 2 vpn %v",
					sc.name, start, g, s, vpn, ok, target, victim)
			}
			if e := h.ReadSlot(target, 2); !e.Valid() || e.RPN() != 0x41 {
				t.Fatalf("%s from group %d: planted entry is %+v, want a valid one with frame 0x41", sc.name, start, e)
			}
			for _, g := range []int{pg, sg} {
				if e := h.ReadSlot(g, 0); e.Valid() != sc.valid || e.RPN() != 0x40 {
					t.Fatalf("%s from group %d: avoided bucket %d changed to %+v", sc.name, start, g, e)
				}
			}
		}
		// A table with nothing eligible (never-used slots only, for
		// ResurrectPTE) yields nothing.
		if _, _, _, ok := sc.scan(NewHTAB(groups, 0x200000), 5); ok {
			t.Fatalf("%s found an entry in an empty table", sc.name)
		}
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

// TestHTABBucketsDisjoint holds the flat table's groups apart: each
// bucket is exactly one PTEG long and capped there, and filling all
// eight slots of a group (or appending past them) leaves the groups
// beside it byte-identical.
func TestHTABBucketsDisjoint(t *testing.T) {
	h := NewHTAB(8, 0)
	for i := range h.ptes {
		h.ptes[i] = arch.NewPTE(arch.VPN(i), arch.PFN(i), false, false).WithValid(false)
	}
	for g := 0; g < h.Groups(); g++ {
		b := h.bucket(g)
		if len(b) != arch.PTEGSize || cap(b) != arch.PTEGSize {
			t.Fatalf("bucket(%d): len %d, cap %d, want %d", g, len(b), cap(b), arch.PTEGSize)
		}
		before := append([]arch.PTE(nil), h.ptes...)
		for s := range b {
			b[s] = arch.NewPTE(arch.VPNOf(0xabcdef, 0xffff<<arch.PageShift), 0xfffff, true, true)
		}
		_ = append(b, arch.NewPTE(0, 1, false, false))
		for _, n := range []int{g - 1, g + 1} {
			if n < 0 || n >= h.Groups() {
				continue
			}
			for s := 0; s < arch.PTEGSize; s++ {
				if got, want := h.ReadSlot(n, s), before[n*arch.PTEGSize+s]; got != want {
					t.Fatalf("filling group %d changed group %d slot %d: %+v, was %+v", g, n, s, got, want)
				}
			}
		}
		for s := range b {
			if h.ReadSlot(g, s) != b[s] || h.EntryAddr(g, s) != h.base+arch.PhysAddr((g*arch.PTEGSize+s)*arch.PTEBytes) {
				t.Fatalf("bucket(%d) slot %d is not the table's PTE at that address", g, s)
			}
		}
	}
}

var htabSink *HTAB

// NewHTAB allocates the table struct and one flat PTE array, whatever
// the group count.
func TestNewHTABAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { htabSink = NewHTAB(arch.DefaultHTABGroups, 0) }); n > 2 {
		t.Fatalf("NewHTAB allocates %.0f times, want at most 2", n)
	}
}

// runCountingBus is countingBus with the batched entry point
// machine.Machine offers, so a search's touches cost one call per run.
type runCountingBus struct{ countingBus }

func (b *runCountingBus) MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool) {
	b.n += n
}

// BenchmarkHTABSearch times Search by outcome over a table filled to
// 90% of its 16384 slots: a primary hit, a secondary hit (found after
// the full primary bucket), and a miss (both buckets scanned, 16
// accesses). Each sub-benchmark cycles through 1024 VPNs of its
// outcome, so the groups it reads are scattered over the table.
func BenchmarkHTABSearch(b *testing.B) {
	h := newTestHTAB()
	const fill = arch.DefaultHTABGroups * arch.PTEGSize * 9 / 10
	for i := 0; i < fill; i++ {
		h.Insert(arch.VPNOf(arch.VSID(i>>4+1), arch.EffectiveAddr(i&15)<<arch.PageShift), arch.PFN(i), false, nil, nil)
	}
	var primary, secondary, miss []arch.VPN
	for i := 0; len(primary) < 1024 || len(secondary) < 1024 || len(miss) < 1024; i++ {
		vpn := arch.VPNOf(arch.VSID(i>>4+1), arch.EffectiveAddr(i&15)<<arch.PageShift)
		pte, prim, _ := h.Search(vpn, nil)
		switch {
		case pte == nil:
			miss = append(miss, vpn)
		case prim:
			primary = append(primary, vpn)
		default:
			secondary = append(secondary, vpn)
		}
	}
	for _, o := range []struct {
		name string
		vpns []arch.VPN
	}{{"primary", primary[:1024]}, {"secondary", secondary[:1024]}, {"miss", miss[:1024]}} {
		b.Run(o.name, func(b *testing.B) {
			var bus runCountingBus
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Search(o.vpns[i&1023], &bus)
			}
		})
	}
}

// sweepRef is one reference a bus saw: a PTE address and whether it was
// the write-back of a reclaimed PTE.
type sweepRef struct {
	pa    arch.PhysAddr
	write bool
}

// sweepRun is one batched call a bus saw: its first address and its
// reference count.
type sweepRun struct {
	pa arch.PhysAddr
	n  int
}

// recordingBus records every reference in order, a run's expanded, and
// every run as issued.
type recordingBus struct {
	refs []sweepRef
	runs []sweepRun
}

func (b *recordingBus) MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool) {
	b.refs = append(b.refs, sweepRef{pa, write})
}

func (b *recordingBus) MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool) {
	b.runs = append(b.runs, sweepRun{pa, n})
	for i := 0; i < n; i++ {
		b.refs = append(b.refs, sweepRef{pa + arch.PhysAddr(i*stride), write})
	}
}

// TestReclaimScanRuns holds the idle sweep's batching to the per-group
// order it stands for, each group's eight reads with a write after
// every zombie's: a stretch of clean groups goes out as one run, cut
// before a group holding a zombie (which keeps its scalar
// interleaving) and at the wrap to group 0.
func TestReclaimScanRuns(t *testing.T) {
	const groups = 16
	live, dead := arch.VSID(1), arch.VSID(2)
	isZombie := zombieFunc(func(v arch.VSID) bool { return v == dead })
	cases := []struct {
		name     string
		zombies  []int // the groups holding zombie PTEs
		start, n int
		runs     [][2]int // the first group and group count of each run
	}{
		{"clean stretch", nil, 2, 5, [][2]int{{2, 5}}},
		{"zombie in the middle", []int{5}, 3, 5, [][2]int{{3, 2}, {6, 2}}},
		{"wrap at group 0", nil, 13, 6, [][2]int{{13, 3}, {0, 3}}},
		{"zombies at the wrap", []int{15, 1}, 14, 5, [][2]int{{14, 1}, {0, 1}, {2, 1}}},
		{"zombie first and last", []int{4, 8}, 4, 5, [][2]int{{5, 3}}},
		{"whole table twice", nil, 0, 2 * groups, [][2]int{{0, groups}, {0, groups}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHTAB(groups, 0x200000)
			for g := 0; g < groups; g++ {
				for s := 0; s < arch.PTEGSize; s += 3 {
					h.place(g, s, arch.VPNOf(live, arch.EffectiveAddr(g*arch.PTEGSize+s)<<arch.PageShift), 1, false, false)
				}
			}
			for _, g := range tc.zombies {
				for _, s := range []int{1, 5} {
					h.place(g, s, arch.VPNOf(dead, arch.EffectiveAddr(g*arch.PTEGSize+s)<<arch.PageShift), 1, false, false)
				}
			}
			var want []sweepRef
			wantReclaimed := 0
			for i := 0; i < tc.n; i++ {
				g := (tc.start + i) % groups
				for s := 0; s < arch.PTEGSize; s++ {
					want = append(want, sweepRef{h.EntryAddr(g, s), false})
					if e := h.ReadSlot(g, s); e.Valid() && isZombie(e.VSID()) && i < groups {
						want = append(want, sweepRef{h.EntryAddr(g, s), true})
						wantReclaimed++
					}
				}
			}
			var wantRuns []sweepRun
			for _, r := range tc.runs {
				wantRuns = append(wantRuns, sweepRun{h.EntryAddr(r[0], 0), r[1] * arch.PTEGSize})
			}

			var bus recordingBus
			next, reclaimed := h.ReclaimScan(tc.start, tc.n, &bus, isZombie)
			if next != (tc.start+tc.n)%groups || reclaimed != wantReclaimed {
				t.Fatalf("next %d, reclaimed %d; want %d, %d", next, reclaimed, (tc.start+tc.n)%groups, wantReclaimed)
			}
			if !slices.Equal(bus.refs, want) {
				t.Fatalf("references diverge from the per-group order:\ngot  %v\nwant %v", bus.refs, want)
			}
			if !slices.Equal(bus.runs, wantRuns) {
				t.Fatalf("runs %v, want %v", bus.runs, wantRuns)
			}
		})
	}
}

// cacheBus is a bus straight over one cache, without the machine's
// charges.
type cacheBus struct{ c *cache.Cache }

func (b cacheBus) MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool) {
	b.c.Access(pa, class, write)
}

func (b cacheBus) MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool) {
	b.c.AccessRunCount(pa, n, stride, class, write)
}

// BenchmarkReclaimScan is one idle poll's zombie sweep in the steady
// state, where it finds nothing to reclaim: 8 groups of a table filled
// to about a third, 8 times the size of the 604's 32 KB D-cache
// behind it, swept in order, so every line misses.
func BenchmarkReclaimScan(b *testing.B) {
	h := newTestHTAB()
	for g := 0; g < h.Groups(); g++ {
		for s := 0; s < arch.PTEGSize; s += 3 {
			h.place(g, s, arch.VPNOf(1, arch.EffectiveAddr(g*arch.PTEGSize+s)<<arch.PageShift), 1, false, false)
		}
	}
	bus := cacheBus{cache.New("D", 32<<10, 4, 32)}
	isZombie := zombieFunc(func(v arch.VSID) bool { return v == 2 })
	const sweep = 8
	b.ReportAllocs()
	b.ResetTimer()
	next := 0
	for i := 0; i < b.N; i++ {
		next, _ = h.ReclaimScan(next, sweep, bus, isZombie)
	}
	b.StopTimer()
	if got, want := bus.c.Stats().TotalMisses(), uint64(b.N*sweep*arch.PTEGSize*arch.PTEBytes/32); got != want {
		b.Fatalf("%d misses, want every one of the %d lines swept to miss", got, want)
	}
}
