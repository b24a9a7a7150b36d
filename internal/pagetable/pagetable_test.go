package pagetable

import (
	"testing"
	"testing/quick"
	"unsafe"

	"mmutricks/internal/arch"
	"mmutricks/internal/phys"
)

func newTable(t *testing.T) (*Table, *phys.Memory) {
	t.Helper()
	mem := phys.NewDefault()
	tab, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	return tab, mem
}

// TestEntryIsArchitectedWidth pins the host footprint of an entry to
// the width the cache model charges for it, so a PTE page holds 4 KB
// of entries, the size of the frame it models.
func TestEntryIsArchitectedWidth(t *testing.T) {
	if got := unsafe.Sizeof(Entry(0)); got != EntryBytes {
		t.Fatalf("Entry is %d bytes on the host, want EntryBytes = %d", got, EntryBytes)
	}
	if got := unsafe.Sizeof(ptePage{}.entries); got != arch.PageSize {
		t.Fatalf("a PTE page holds %d bytes of entries, want one %d-byte page", got, arch.PageSize)
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tab, _ := newTable(t)
	if err := tab.Map(0x00401234, 0x55, false); err != nil {
		t.Fatal(err)
	}
	e, ok := tab.Lookup(0x00401FFF) // same page
	if !ok || e.RPN() != 0x55 || !e.Present() {
		t.Fatalf("lookup: %+v ok=%v", e, ok)
	}
	if _, ok := tab.Lookup(0x00402000); ok {
		t.Fatal("next page should be unmapped")
	}
	old, ok := tab.Unmap(0x00401000)
	if !ok || old.RPN() != 0x55 {
		t.Fatal("unmap did not return the entry")
	}
	if _, ok := tab.Lookup(0x00401234); ok {
		t.Fatal("entry survives unmap")
	}
	if _, ok := tab.Unmap(0x00401000); ok {
		t.Fatal("double unmap reported success")
	}
}

func TestRemapUpdatesInPlace(t *testing.T) {
	tab, _ := newTable(t)
	_ = tab.Map(0x1000, 1, false)
	_ = tab.Map(0x1000, 2, true)
	e, _ := tab.Lookup(0x1000)
	if e.RPN() != 2 || !e.Inhibited() {
		t.Fatalf("remap: %+v", e)
	}
	if tab.Count() != 1 {
		t.Fatalf("Count = %d", tab.Count())
	}
}

func TestPTEPageAllocationAndRelease(t *testing.T) {
	tab, mem := newTable(t)
	before := mem.FreeFrames()
	// Two pages in the same 4 MB region: one PTE page.
	_ = tab.Map(0x00400000, 1, false)
	_ = tab.Map(0x00401000, 2, false)
	if tab.PTEPages() != 1 {
		t.Fatalf("PTEPages = %d", tab.PTEPages())
	}
	if mem.FreeFrames() != before-1 {
		t.Fatal("should have allocated exactly one PTE page")
	}
	// A page in a different region: second PTE page.
	_ = tab.Map(0x04000000, 3, false)
	if tab.PTEPages() != 2 {
		t.Fatalf("PTEPages = %d", tab.PTEPages())
	}
	// Unmapping everything in a region frees its PTE page.
	tab.Unmap(0x00400000)
	tab.Unmap(0x00401000)
	if tab.PTEPages() != 1 {
		t.Fatal("empty PTE page not freed")
	}
}

func TestWalkAddrs(t *testing.T) {
	tab, _ := newTable(t)
	pgd1, _, ok := tab.WalkAddrs(0x00400000)
	if ok {
		t.Fatal("walk of unmapped region should stop at the PGD")
	}
	_ = tab.Map(0x00400000, 1, false)
	pgd2, pte, ok := tab.WalkAddrs(0x00400000)
	if !ok {
		t.Fatal("walk of mapped region failed")
	}
	if pgd1 != pgd2 {
		t.Fatal("PGD entry address must not depend on mapping state")
	}
	// Adjacent pages in the same region share a PTE page; their PTE
	// addresses differ by EntryBytes.
	_ = tab.Map(0x00401000, 2, false)
	_, pte2, _ := tab.WalkAddrs(0x00401000)
	if pte2-pte != EntryBytes {
		t.Fatalf("PTE stride = %d", pte2-pte)
	}
	// Different regions have different PGD entry addresses.
	_ = tab.Map(0x04000000, 3, false)
	pgd3, _, _ := tab.WalkAddrs(0x04000000)
	if pgd3 == pgd2 {
		t.Fatal("distinct regions share a PGD entry address")
	}
}

func TestRangeAndCountRange(t *testing.T) {
	tab, _ := newTable(t)
	for i := 0; i < 10; i++ {
		_ = tab.Map(arch.EffectiveAddr(0x100000+i*arch.PageSize), arch.PFN(i), false)
	}
	if got := tab.CountRange(0x100000, 0x100000+10*arch.PageSize); got != 10 {
		t.Fatalf("CountRange = %d", got)
	}
	if got := tab.CountRange(0x100000, 0x100000+5*arch.PageSize); got != 5 {
		t.Fatalf("half CountRange = %d", got)
	}
	// Range is ordered and supports early stop.
	var seen []arch.EffectiveAddr
	tab.Range(0, 0xC0000000, func(ea arch.EffectiveAddr, e Entry) bool {
		seen = append(seen, ea)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0x100000 || seen[1] != 0x101000 {
		t.Fatalf("Range order: %v", seen)
	}
}

func TestDestroyReleasesFrames(t *testing.T) {
	mem := phys.NewDefault()
	before := mem.FreeFrames()
	tab, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	_ = tab.Map(0x00400000, 1, false)
	_ = tab.Map(0x04000000, 2, false)
	tab.Destroy()
	if mem.FreeFrames() != before {
		t.Fatalf("leak: %d frames free, want %d", mem.FreeFrames(), before)
	}
	tab.Destroy() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("Map after Destroy should panic")
		}
	}()
	_ = tab.Map(0x1000, 1, false)
}

func TestOOMHandling(t *testing.T) {
	mem := phys.New(64*arch.PageSize, 4*arch.PageSize)
	tab, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust memory.
	for {
		if _, ok := mem.AllocFrame(); !ok {
			break
		}
	}
	if err := tab.Map(0x00400000, 1, false); err == nil {
		t.Fatal("Map should fail when no PTE page can be allocated")
	}
	if _, err := New(mem); err == nil {
		t.Fatal("New should fail with no memory")
	}
}

func TestMapLookupProperty(t *testing.T) {
	tab, _ := newTable(t)
	f := func(ea arch.EffectiveAddr, rpn arch.PFN) bool {
		ea &= 0x7FFFFFFF // keep user range, below kernel
		rpn &= 0xFFFFF
		if err := tab.Map(ea, rpn, false); err != nil {
			return true // OOM is acceptable
		}
		e, ok := tab.Lookup(ea)
		return ok && e.RPN() == rpn && e.Present()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountTracksMappings(t *testing.T) {
	tab, _ := newTable(t)
	f := func(pages []uint16) bool {
		fresh := 0
		seen := map[uint16]bool{}
		for _, p := range pages {
			if !seen[p] {
				fresh++
				seen[p] = true
			}
			if err := tab.Map(arch.EffectiveAddr(p)<<arch.PageShift, 1, false); err != nil {
				return true
			}
		}
		for p := range seen {
			tab.Unmap(arch.EffectiveAddr(p) << arch.PageShift)
		}
		return tab.Count() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
