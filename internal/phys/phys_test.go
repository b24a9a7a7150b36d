package phys

import (
	"testing"
	"testing/quick"

	"mmutricks/internal/arch"
)

func TestDefaultLayout(t *testing.T) {
	m := NewDefault()
	if m.Frames() != 8192 {
		t.Fatalf("32 MB should be 8192 frames, got %d", m.Frames())
	}
	l := m.Layout()
	if l.HTABBytes != 128*1024 {
		t.Fatalf("hash table should be 128 KB, got %d", l.HTABBytes)
	}
	if l.HTABBase != arch.PhysAddr(l.KernelBytes) {
		t.Fatal("hash table must sit directly above the kernel image")
	}
	wantFirst := arch.PFN((l.KernelBytes + l.HTABBytes) / arch.PageSize)
	if l.FirstFree != wantFirst {
		t.Fatalf("FirstFree = %d want %d", l.FirstFree, wantFirst)
	}
	if m.FreeFrames() != m.Frames()-int(wantFirst) {
		t.Fatalf("free frames = %d", m.FreeFrames())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ ram, kern int }{
		{0, 4096}, {1<<20 + 1, 4096}, {1 << 20, 0}, {1 << 20, 4097}, {1 << 20, 16 << 20},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", c.ram, c.kern)
				}
			}()
			New(c.ram, c.kern)
		}()
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	m := NewDefault()
	pfn, ok := m.AllocFrame()
	if !ok {
		t.Fatal("alloc failed on fresh memory")
	}
	if !m.InUse(pfn) {
		t.Fatal("allocated frame not marked in use")
	}
	if pfn < m.Layout().FirstFree {
		t.Fatal("allocator handed out a reserved frame")
	}
	m.FreeFrame(pfn)
	if m.InUse(pfn) {
		t.Fatal("freed frame still in use")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(64*arch.PageSize, 4*arch.PageSize)
	want := m.FreeFrames()
	n := 0
	for {
		if _, ok := m.AllocFrame(); !ok {
			break
		}
		n++
	}
	if n != want {
		t.Fatalf("allocated %d frames, want %d", n, want)
	}
	if _, ok := m.AllocFrame(); ok {
		t.Fatal("alloc should keep failing once exhausted")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := NewDefault()
	pfn, _ := m.AllocFrame()
	m.FreeFrame(pfn)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	m.FreeFrame(pfn)
}

func TestFreeReservedPanics(t *testing.T) {
	m := NewDefault()
	defer func() {
		if recover() == nil {
			t.Error("freeing a reserved frame should panic")
		}
	}()
	m.FreeFrame(0)
}

func TestAllocNeverAliases(t *testing.T) {
	m := NewDefault()
	seen := map[arch.PFN]bool{}
	for i := 0; i < 1000; i++ {
		pfn, ok := m.AllocFrame()
		if !ok {
			t.Fatal("unexpected exhaustion")
		}
		if seen[pfn] {
			t.Fatalf("frame %#x handed out twice", uint32(pfn))
		}
		seen[pfn] = true
	}
}

func TestClearedListFastPath(t *testing.T) {
	m := NewDefault()
	// Without idle clearing, GetFreePage always takes the slow path.
	_, cleared, ok := m.GetFreePage()
	if !ok || cleared {
		t.Fatalf("expected slow-path page, cleared=%v ok=%v", cleared, ok)
	}
	if m.Stats().ClearedMisses != 1 {
		t.Fatal("slow path not counted")
	}
	// Idle task banks a page; next request takes the fast path.
	cand, ok := m.PopClearedCandidate()
	if !ok {
		t.Fatal("no candidate with free memory available")
	}
	m.PushCleared(cand)
	if m.ClearedLen() != 1 {
		t.Fatal("cleared list should hold one page")
	}
	pfn, cleared, ok := m.GetFreePage()
	if !ok || !cleared || pfn != cand {
		t.Fatalf("fast path broken: pfn=%v cleared=%v", pfn, cleared)
	}
	if m.Stats().ClearedHits != 1 {
		t.Fatal("fast path not counted")
	}
	if !m.InUse(pfn) {
		t.Fatal("fast-path page not marked in use")
	}
}

func TestClearedListSkipsReallocatedFrames(t *testing.T) {
	m := NewDefault()
	cand, _ := m.PopClearedCandidate()
	m.PushCleared(cand)
	// The frame gets allocated through the ordinary path before the
	// cleared list is consulted (the list is an overlay; the paper's
	// list is lock-free so this race is real there too).
	var grabbed arch.PFN
	for {
		pfn, ok := m.AllocFrame()
		if !ok {
			t.Fatal("exhausted before hitting candidate")
		}
		if pfn == cand {
			grabbed = pfn
			break
		}
	}
	_ = grabbed
	pfn, cleared, ok := m.GetFreePage()
	if !ok {
		t.Fatal("GetFreePage failed")
	}
	if cleared && pfn == cand {
		t.Fatal("handed out a frame that was already allocated")
	}
}

func TestPushClearedIgnoresBusyAndDuplicate(t *testing.T) {
	m := NewDefault()
	pfn, _ := m.AllocFrame()
	m.PushCleared(pfn) // busy: ignored
	if m.ClearedLen() != 0 {
		t.Fatal("busy frame accepted onto cleared list")
	}
	m.FreeFrame(pfn)
	m.PushCleared(pfn)
	m.PushCleared(pfn) // duplicate: ignored
	if m.ClearedLen() != 1 {
		t.Fatalf("cleared list length = %d, want 1", m.ClearedLen())
	}
}

func TestPopClearedCandidateDrains(t *testing.T) {
	m := New(64*arch.PageSize, 4*arch.PageSize)
	seen := map[arch.PFN]bool{}
	for {
		pfn, ok := m.PopClearedCandidate()
		if !ok {
			break
		}
		if seen[pfn] {
			t.Fatalf("candidate %v returned twice", pfn)
		}
		seen[pfn] = true
		m.PushCleared(pfn)
	}
	if len(seen) != m.FreeFrames() {
		t.Fatalf("cleared %d frames, %d free", len(seen), m.FreeFrames())
	}
}

func TestHTABFrames(t *testing.T) {
	m := NewDefault()
	first, count := m.HTABFrames()
	if first != m.Layout().HTABBase.Frame() {
		t.Fatal("HTAB first frame wrong")
	}
	if int(count)*arch.PageSize != m.Layout().HTABBytes {
		t.Fatal("HTAB frame count wrong")
	}
}

func TestAllocFreeProperty(t *testing.T) {
	m := NewDefault()
	var held []arch.PFN
	f := func(alloc bool) bool {
		if alloc {
			pfn, ok := m.AllocFrame()
			if !ok {
				return true
			}
			held = append(held, pfn)
			return m.InUse(pfn)
		}
		if len(held) == 0 {
			return true
		}
		pfn := held[len(held)-1]
		held = held[:len(held)-1]
		m.FreeFrame(pfn)
		return !m.InUse(pfn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestStaleClearedEntryHandedOut pins a known defect so that the
// allocator reproduces it exactly: AllocFrame may take a frame banked
// on the cleared list, leaving its entry behind, and once FreeFrame
// returns the (now dirty) frame, GetFreePage hands it out through the
// stale entry as pre-cleared and counts a ClearedHit. Fixing it changes
// simulated counters; a fix must flip this test to expect a dirty page
// (cleared=false, a ClearedMiss).
func TestStaleClearedEntryHandedOut(t *testing.T) {
	m := NewDefault()
	banked, _ := m.PopClearedCandidate()
	m.PushCleared(banked)
	pfn, _ := m.AllocFrame()
	if pfn != banked {
		t.Fatalf("AllocFrame took %v, want the banked top frame %v", pfn, banked)
	}
	m.FreeFrame(pfn) // the frame was used: its contents are dirty now
	if m.ClearedLen() != 1 {
		t.Fatalf("cleared list holds %d entries, want the 1 stale one", m.ClearedLen())
	}
	got, cleared, ok := m.GetFreePage()
	if !ok || got != banked || !cleared {
		t.Fatalf("GetFreePage = (%v, %v, %v), want the stale (%v, true, true)", got, cleared, ok, banked)
	}
	if st := m.Stats(); st.ClearedHits != 1 || st.ClearedMisses != 0 {
		t.Fatalf("stale hand-out counted hits %d, misses %d; want 1, 0", st.ClearedHits, st.ClearedMisses)
	}
}
