package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mmutricks/internal/arch"
)

// acc is a test helper: one read access, returning only the hit bit.
func acc(c *Cache, pa arch.PhysAddr, cl Class) bool {
	hit, _ := c.Access(pa, cl, false)
	return hit
}

func mk(t *testing.T) *Cache {
	t.Helper()
	return New("D", 16*1024, 4, 32) // 603 geometry: 128 sets
}

func TestGeometry(t *testing.T) {
	c := mk(t)
	if c.Sets() != 128 || c.LineSize() != 32 {
		t.Fatalf("geometry: sets=%d line=%d", c.Sets(), c.LineSize())
	}
	if c.Name() != "D" {
		t.Fatalf("name = %q", c.Name())
	}
}

// TestBadGeometryPanics: an inconsistent geometry panics, and so do the
// last three rows, consistent 1-, 2- and 8-way geometries, with a
// message naming the 4-way cache, the only geometry built.
func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{{0, 4, 32}, {16384, 0, 32}, {16384, 4, 0}, {16384, 3, 32}, {100, 4, 32}, {2048, 1, 32}, {4096, 2, 32}, {16384, 8, 32}} {
		t.Run(fmt.Sprintf("size=%d/ways=%d/line=%d", g[0], g[1], g[2]), func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); r == nil || g[1] != Ways && !strings.Contains(msg, "4-way") {
					t.Errorf("New(%v) panicked with %v; want a panic, naming the 4-way cache when ways is not 4", g, r)
				}
			}()
			New("x", g[0], g[1], g[2])
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := mk(t)
	if acc(c, 0x1000, ClassUser) {
		t.Fatal("first access must miss")
	}
	if !acc(c, 0x1000, ClassUser) {
		t.Fatal("second access must hit")
	}
	if !acc(c, 0x101F, ClassUser) {
		t.Fatal("same line (offset 31) must hit")
	}
	if acc(c, 0x1020, ClassUser) {
		t.Fatal("next line must miss")
	}
	s := c.Stats()
	if s.Accesses[ClassUser] != 4 || s.Misses[ClassUser] != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mk(t)
	// Five conflicting lines in a 4-way set: addresses differing only
	// above set+offset bits. Set stride = sets*lineSize = 4096.
	stride := arch.PhysAddr(c.Sets() * c.LineSize())
	base := arch.PhysAddr(0x2000)
	for i := 0; i < 4; i++ {
		acc(c, base+arch.PhysAddr(i)*stride, ClassUser)
	}
	// Re-touch line 0 so line 1 is LRU.
	acc(c, base, ClassUser)
	// Fill a fifth line: must evict line 1, keep line 0.
	acc(c, base+4*stride, ClassUser)
	if !c.Contains(base) {
		t.Error("MRU line evicted")
	}
	if c.Contains(base + 1*stride) {
		t.Error("LRU line not evicted")
	}
	for _, i := range []int{2, 3, 4} {
		if !c.Contains(base + arch.PhysAddr(i)*stride) {
			t.Errorf("line %d should be resident", i)
		}
	}
}

func TestPollutionAttribution(t *testing.T) {
	c := mk(t)
	stride := arch.PhysAddr(c.Sets() * c.LineSize())
	// Fill one set entirely with user lines.
	for i := 0; i < 4; i++ {
		acc(c, arch.PhysAddr(i)*stride, ClassUser)
	}
	// A page-table walk lands in the same set and evicts a user line.
	acc(c, 4*stride, ClassPageTable)
	s := c.Stats()
	if s.EvictedBy[ClassUser][ClassPageTable] != 1 {
		t.Fatalf("pollution matrix: %+v", s.EvictedBy)
	}
	if got := s.PollutionBy(ClassPageTable); got != 1 {
		t.Fatalf("PollutionBy = %d", got)
	}
	// Self-eviction is not pollution.
	if got := s.PollutionBy(ClassUser); got != 0 {
		t.Fatalf("user self-eviction counted as pollution: %d", got)
	}
}

func TestInhibitedNeverFills(t *testing.T) {
	c := mk(t)
	c.AccessInhibited(ClassIdle)
	c.AccessInhibited(ClassIdle)
	if c.Stats().Inhibited[ClassIdle] != 2 {
		t.Fatal("inhibited accesses not counted")
	}
	if c.Stats().TotalAccesses() != 0 || c.Stats().TotalMisses() != 0 {
		t.Fatal("inhibited access must not count as cached access")
	}
	if got := c.Residency(); len(got) != 0 {
		t.Fatalf("inhibited access filled the cache: %v", got)
	}
}

func TestTouchWarmsWithoutStats(t *testing.T) {
	c := mk(t)
	c.Touch(0x1000, ClassUser)
	if c.Stats().TotalAccesses() != 0 {
		t.Fatal("Touch must not count accesses")
	}
	if !acc(c, 0x1000, ClassUser) {
		t.Fatal("Touch should have made the line resident")
	}
}

func TestInvalidateAllAndResetStats(t *testing.T) {
	c := mk(t)
	acc(c, 0x1000, ClassUser)
	c.InvalidateAll()
	if c.Contains(0x1000) {
		t.Fatal("InvalidateAll left lines resident")
	}
	c.ResetStats()
	if c.Stats().TotalAccesses() != 0 {
		t.Fatal("ResetStats left counters")
	}
}

func TestResidencySnapshot(t *testing.T) {
	c := mk(t)
	acc(c, 0x0, ClassUser)
	acc(c, 0x20, ClassUser)
	acc(c, 0x40, ClassHashTable)
	r := c.Residency()
	if r[ClassUser] != 2 || r[ClassHashTable] != 1 {
		t.Fatalf("residency: %v", r)
	}
}

func TestMissRate(t *testing.T) {
	c := mk(t)
	if c.Stats().MissRate() != 0 {
		t.Fatal("empty cache MissRate should be 0")
	}
	acc(c, 0x1000, ClassUser) // miss
	acc(c, 0x1000, ClassUser) // hit
	acc(c, 0x1000, ClassUser) // hit
	acc(c, 0x1000, ClassUser) // hit
	if got := c.Stats().MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", got)
	}
}

func TestSameLineAlwaysHitsAfterFill(t *testing.T) {
	c := New("q", 4096, 4, 32)
	f := func(pa arch.PhysAddr, off uint8) bool {
		acc(c, pa, ClassUser)
		// Any address on the same line must now hit.
		line := pa &^ arch.PhysAddr(31)
		return acc(c, line+arch.PhysAddr(off)%32, ClassUser)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	c := New("q", 4096, 4, 32) // 128 lines
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			acc(c, arch.PhysAddr(a), ClassUser)
		}
		total := 0
		for _, n := range c.Residency() {
			total += n
		}
		return total <= 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDirtyCastout(t *testing.T) {
	c := mk(t)
	stride := arch.PhysAddr(c.Sets() * c.LineSize())
	// Write four conflicting lines: all dirty.
	for i := 0; i < 4; i++ {
		c.Access(arch.PhysAddr(i)*stride, ClassIdle, true)
	}
	if c.DirtyLines() != 4 {
		t.Fatalf("dirty lines = %d", c.DirtyLines())
	}
	// A read fill into the full set must cast out the dirty victim.
	_, castout := c.Access(4*stride, ClassUser, false)
	if !castout {
		t.Fatal("evicting a dirty line must report a castout")
	}
	if c.Stats().Castouts[ClassIdle] != 1 {
		t.Fatalf("castout attribution: %v", c.Stats().Castouts)
	}
	// Clean victims do not cast out.
	c2 := mk(t)
	for i := 0; i < 4; i++ {
		acc(c2, arch.PhysAddr(i)*stride, ClassUser)
	}
	if _, castout := c2.Access(4*stride, ClassUser, false); castout {
		t.Fatal("clean eviction must not cast out")
	}
}

func TestWriteHitDirties(t *testing.T) {
	c := mk(t)
	acc(c, 0x1000, ClassUser) // clean fill
	if c.DirtyLines() != 0 {
		t.Fatal("read fill should be clean")
	}
	c.Access(0x1000, ClassUser, true) // write hit
	if c.DirtyLines() != 1 {
		t.Fatal("write hit must dirty the line")
	}
	c.InvalidateAll()
	if c.DirtyLines() != 0 {
		t.Fatal("invalidate left dirty lines")
	}
}

func TestClassStrings(t *testing.T) {
	for _, cl := range Classes {
		if cl.String() == "" {
			t.Errorf("class %d has empty string", cl)
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class must still format")
	}
}

func TestConflictMissesAcrossClasses(t *testing.T) {
	// A direct demonstration of §8: after page-table traffic storms a
	// set, previously-hot user lines miss again.
	c := mk(t)
	stride := arch.PhysAddr(c.Sets() * c.LineSize())
	hot := arch.PhysAddr(0x3000)
	acc(c, hot, ClassUser)
	for i := 1; i <= 4; i++ {
		acc(c, hot+arch.PhysAddr(i)*stride, ClassPageTable)
	}
	if acc(c, hot, ClassUser) {
		t.Fatal("hot user line should have been displaced by page-table fills")
	}
}
