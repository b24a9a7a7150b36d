package kernel

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/machine"
	"mmutricks/internal/vsid"
)

// newTinyCtx builds a context allocator that wraps after 4 contexts,
// for wrap-path testing.
func newTinyCtx(scatter uint32) *vsid.ContextAllocator {
	return vsid.NewContextAllocator(scatter, 4)
}

// boot builds a machine+kernel with one task running a small image.
// Every booted kernel gets an end-of-test consistency sweep: lazy
// flushing leaves zombie PTEs and unmatchable TLB entries around on
// purpose, and the sweep proves the coherence invariants survived
// whatever the test did — including recovered panics.
func bootTask(t *testing.T, model clock.CPUModel, cfg Config) (*Kernel, *Task) {
	t.Helper()
	k := New(machine.New(model), cfg)
	img := k.LoadImage("test", 8)
	task := k.Spawn(img)
	t.Cleanup(func() {
		if err := k.CheckConsistency(); err != nil {
			t.Errorf("end-of-test consistency sweep: %v", err)
		}
	})
	return k, task
}

func TestBootKernelBAT(t *testing.T) {
	cfg := Unoptimized()
	cfg.KernelBAT = true
	k, _ := bootTask(t, clock.PPC604At185(), cfg)
	// The whole linear map must be covered: a kernel data access makes
	// no TLB traffic at all.
	before := k.M.Mon.Snapshot()
	k.kdata(0, 64)
	d := k.M.Mon.Delta(before)
	if d.TLBMisses != 0 || d.TLBHits != 0 {
		t.Fatalf("BAT-mapped kernel made TLB traffic: %+v", d)
	}
	if d.BATHits == 0 {
		t.Fatal("no BAT hits recorded")
	}
}

func TestBootNoBATUsesTLB(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	before := k.M.Mon.Snapshot()
	k.kdata(0, 64)
	d := k.M.Mon.Delta(before)
	if d.BATHits != 0 {
		t.Fatal("unoptimized kernel should not have BAT mappings")
	}
	if d.TLBMisses == 0 {
		t.Fatal("kernel data access should have missed the TLB")
	}
	// Kernel PTEs land in the TLB (the §5.1 footprint).
	if k.M.MMU.TLB.KernelEntries() == 0 {
		t.Fatal("kernel entries missing from TLB")
	}
}

func TestUserTouchFaultsPagesIn(t *testing.T) {
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		k, task := bootTask(t, model, Unoptimized())
		before := k.M.Mon.Snapshot()
		k.UserTouch(UserDataBase, 64)
		d := k.M.Mon.Delta(before)
		if d.MajorFaults != 1 {
			t.Fatalf("%s: major faults = %d, want 1 (demand-zero)", model.Name, d.MajorFaults)
		}
		if _, ok := task.PT.Lookup(UserDataBase); !ok {
			t.Fatalf("%s: page not mapped after fault", model.Name)
		}
		// Second touch: no fault, translation cached.
		before = k.M.Mon.Snapshot()
		k.UserTouch(UserDataBase, 64)
		d = k.M.Mon.Delta(before)
		if d.MajorFaults != 0 || d.MinorFaults != 0 {
			t.Fatalf("%s: refault on warm page: %+v", model.Name, d)
		}
	}
}

func TestTextFaultsAreMinor(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	before := k.M.Mon.Snapshot()
	k.UserRun(0, 64)
	d := k.M.Mon.Delta(before)
	if d.MinorFaults == 0 {
		t.Fatal("text should fault in from the page cache (minor)")
	}
	if d.MajorFaults != 0 {
		t.Fatal("text faults must not allocate")
	}
}

func Test603SoftwareReloadPaths(t *testing.T) {
	// With the hash table: reload searches it, missing the first time
	// and inserting, then hitting after a TLB eviction... simplest
	// check: counters move on the htab path only when UseHTAB.
	cfg := Unoptimized() // UseHTAB = true
	k, _ := bootTask(t, clock.PPC603At180(), cfg)
	before := k.M.Mon.Snapshot()
	k.UserTouch(UserDataBase, 32)
	d := k.M.Mon.Delta(before)
	if d.SoftwareReloads == 0 {
		t.Fatal("603 must take software reloads")
	}
	if d.HTABInserts == 0 {
		t.Fatal("UseHTAB reload should insert into the hash table")
	}
	if d.HardwareWalks != 0 {
		t.Fatal("603 must never hardware-walk")
	}

	cfg.UseHTAB = false
	k2, _ := bootTask(t, clock.PPC603At180(), cfg)
	before = k2.M.Mon.Snapshot()
	k2.UserTouch(UserDataBase, 32)
	d = k2.M.Mon.Delta(before)
	if d.HTABInserts != 0 || d.HTABHits != 0 || d.HTABMisses != 0 {
		t.Fatalf("no-htab 603 touched the hash table: %+v", d)
	}
	if k2.M.MMU.HTAB.Occupancy() != 0 {
		t.Fatal("no-htab kernel populated the hash table")
	}
}

func Test604AlwaysUsesHTAB(t *testing.T) {
	cfg := Optimized() // UseHTAB=false is ignored on the 604
	k, _ := bootTask(t, clock.PPC604At185(), cfg)
	before := k.M.Mon.Snapshot()
	k.UserTouch(UserDataBase, 32)
	d := k.M.Mon.Delta(before)
	if d.HardwareWalks == 0 || d.HTABInserts == 0 {
		t.Fatalf("604 must use the hash table: %+v", d)
	}
}

func Test603HTABSecondLevelTLBCache(t *testing.T) {
	// After the TLB is flushed, a UseHTAB 603 should hit the hash
	// table on reload (it acts as a second-level TLB cache).
	k, _ := bootTask(t, clock.PPC603At180(), Unoptimized())
	k.UserTouchPages(UserDataBase, 8)
	k.M.MMU.TLB.InvalidateAll()
	before := k.M.Mon.Snapshot()
	k.UserTouchPages(UserDataBase, 8)
	d := k.M.Mon.Delta(before)
	if d.HTABHits < 8 {
		// At least the 8 user pages; kernel text/data pages may add
		// hits of their own.
		t.Fatalf("hash hits after TLB flush = %d, want >= 8", d.HTABHits)
	}
	if d.MajorFaults+d.MinorFaults != 0 {
		t.Fatal("no page faults expected on warm pages")
	}
}

func TestFastReloadIsCheaper(t *testing.T) {
	run := func(fast bool) clock.Cycles {
		cfg := Unoptimized()
		cfg.FastReload = fast
		k, _ := bootTask(t, clock.PPC603At180(), cfg)
		k.UserTouchPages(UserDataBase, 64) // fault everything in
		k.M.MMU.TLB.InvalidateAll()
		start := k.M.Led.Now()
		k.UserTouchPages(UserDataBase, 64) // pure reload cost
		return k.M.Led.Now() - start
	}
	slow, fast := run(false), run(true)
	if fast >= slow {
		t.Fatalf("fast reload (%d cycles) not cheaper than C reload (%d)", fast, slow)
	}
	// §6.1 reports large gains; the reload path itself should be at
	// least 2x cheaper.
	if slow < fast*2 {
		t.Logf("note: reload improvement only %.2fx", float64(slow)/float64(fast))
	}
}

func TestForkCopiesPrivateSharesText(t *testing.T) {
	k, parent := bootTask(t, clock.PPC604At185(), Unoptimized())
	k.UserTouch(UserDataBase, arch.PageSize) // fault one heap page
	k.UserRun(0, 64)                         // fault one text page
	child := k.Fork()
	if child.PID == parent.PID {
		t.Fatal("child PID must differ")
	}
	if child.Ctx == parent.Ctx {
		t.Fatal("child must have its own mm context")
	}
	// Child heap page copied.
	ce, ok := child.PT.Lookup(UserDataBase)
	if !ok {
		t.Fatal("child heap page missing")
	}
	pe, _ := parent.PT.Lookup(UserDataBase)
	if ce.RPN() == pe.RPN() {
		t.Fatal("child shares parent's private page")
	}
	// Text is shared via the page cache: child faults it to the same
	// frame.
	k.Switch(child)
	k.UserRun(0, 64)
	cte, _ := child.PT.Lookup(UserTextBase)
	pte, _ := parent.PT.Lookup(UserTextBase)
	if cte.RPN() != pte.RPN() {
		t.Fatal("text frames must be shared")
	}
}

func TestExitFreesEverything(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	free0 := k.M.Mem.FreeFrames()
	child := k.Fork()
	k.Switch(child)
	k.UserTouch(UserDataBase, 4*arch.PageSize)
	k.UserRun(0, 64)
	k.Exit()
	k.Wait(child)
	if got := k.M.Mem.FreeFrames(); got != free0 {
		t.Fatalf("frame leak: %d free, want %d", got, free0)
	}
	if _, ok := k.Task(child.PID); ok {
		t.Fatal("task not reaped")
	}
}

func TestExecReplacesAddressSpace(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	k.UserTouch(UserDataBase, arch.PageSize)
	img2 := k.LoadImage("other", 4)
	k.Exec(img2)
	if task.image != img2 {
		t.Fatal("image not replaced")
	}
	if _, ok := task.PT.Lookup(UserDataBase); ok {
		t.Fatal("old mappings survived exec")
	}
	// The new text demand-faults fine.
	k.UserRun(0, 64)
}

func TestLazyFlushRetiresVSIDs(t *testing.T) {
	cfg := Optimized()
	k, task := bootTask(t, clock.PPC604At185(), cfg)
	k.UserTouchPages(UserDataBase, 8)
	oldCtx := task.Ctx
	oldVSID := task.Segs[int(UserDataBase>>28)]
	occBefore := k.M.MMU.HTAB.Occupancy()
	before := k.M.Mon.Snapshot()

	k.flushContext(task)

	d := k.M.Mon.Delta(before)
	if d.FlushContext != 1 {
		t.Fatal("flush not counted")
	}
	if d.HTABFlushSearches != 0 {
		t.Fatal("lazy flush must not search the hash table")
	}
	if task.Ctx == oldCtx {
		t.Fatal("context not reassigned")
	}
	if !k.ZombieVSID(oldVSID) {
		t.Fatal("old VSID not zombie")
	}
	// Zombie PTEs remain valid in the table (§7).
	if k.M.MMU.HTAB.Occupancy() != occBefore {
		t.Fatal("lazy flush physically invalidated PTEs")
	}
	if k.M.MMU.HTAB.LiveOccupancy(k) != occBefore-8 {
		t.Fatalf("live occupancy = %d", k.M.MMU.HTAB.LiveOccupancy(k))
	}
	// The stale translations never match: touching the pages faults
	// them in freshly rather than reusing zombies.
	before = k.M.Mon.Snapshot()
	k.UserTouchPages(UserDataBase, 8)
	d = k.M.Mon.Delta(before)
	if d.TLBMisses == 0 {
		t.Fatal("stale TLB entries matched after lazy flush")
	}
}

func TestEagerFlushSearchesHTAB(t *testing.T) {
	cfg := Unoptimized()
	k, task := bootTask(t, clock.PPC604At185(), cfg)
	k.UserTouchPages(UserDataBase, 8)
	occBefore := k.M.MMU.HTAB.Occupancy()
	before := k.M.Mon.Snapshot()
	k.flushContext(task)
	d := k.M.Mon.Delta(before)
	if d.HTABFlushSearches == 0 {
		t.Fatal("eager flush must search the hash table")
	}
	if k.M.MMU.HTAB.Occupancy() >= occBefore {
		t.Fatal("eager flush must physically invalidate PTEs")
	}
	if task.Ctx == 0 {
		t.Fatal("task lost its context")
	}
}

func TestFlushRangeCutoff(t *testing.T) {
	cfg := Optimized() // cutoff 20
	k, task := bootTask(t, clock.PPC604At185(), cfg)
	before := k.M.Mon.Snapshot()
	k.flushRange(task, UserMmapBase, 10) // under cutoff: per-page
	d := k.M.Mon.Delta(before)
	if d.FlushRange != 1 || d.FlushPage != 10 || d.FlushContext != 0 {
		t.Fatalf("small range: %+v", d)
	}
	before = k.M.Mon.Snapshot()
	k.flushRange(task, UserMmapBase, 100) // over cutoff: context flush
	d = k.M.Mon.Delta(before)
	if d.FlushContext != 1 || d.FlushPage != 0 {
		t.Fatalf("large range: %+v", d)
	}
}

func TestMmapMunmapLifecycle(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	free0 := k.M.Mem.FreeFrames()
	addr := k.SysMmap(16)
	if addr != UserMmapBase {
		t.Fatalf("mmap placement = %v", addr)
	}
	k.UserTouch(addr, 16*arch.PageSize) // fault all 16 in
	if task.PT.CountRange(addr, addr+16*arch.PageSize) != 16 {
		t.Fatal("pages not mapped")
	}
	k.SysMunmap(addr, 16)
	if task.PT.CountRange(addr, addr+16*arch.PageSize) != 0 {
		t.Fatal("pages still mapped after munmap")
	}
	// Only the PTE page (if any) may differ; frames must be returned.
	if got := k.M.Mem.FreeFrames(); got < free0-1 {
		t.Fatalf("frames leaked by munmap: %d < %d", got, free0)
	}
	defer func() {
		if recover() == nil {
			t.Error("double munmap should panic")
		}
	}()
	k.SysMunmap(addr, 16)
}

func TestPipeRoundTrip(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	p := k.SysPipe()
	if p.Space() != arch.PageSize || p.Buffered() != 0 {
		t.Fatal("fresh pipe state wrong")
	}
	// Write beyond capacity: truncated at one page.
	n := k.SysPipeWrite(p, UserDataBase, arch.PageSize+100)
	if n != arch.PageSize {
		t.Fatalf("wrote %d", n)
	}
	if k.SysPipeWrite(p, UserDataBase, 1) != 0 {
		t.Fatal("full pipe accepted a write")
	}
	if got := k.SysPipeRead(p, UserDataBase+0x10000, 512); got != 512 {
		t.Fatalf("read %d", got)
	}
	if p.Buffered() != arch.PageSize-512 {
		t.Fatalf("buffered = %d", p.Buffered())
	}
	// Drain.
	if got := k.SysPipeRead(p, UserDataBase+0x10000, arch.PageSize); got != arch.PageSize-512 {
		t.Fatalf("drain read %d", got)
	}
	if k.SysPipeRead(p, UserDataBase+0x10000, 1) != 0 {
		t.Fatal("empty pipe returned data")
	}
}

func TestFileRead(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	f := k.CreateFile(4)
	if f.Size() != 4*arch.PageSize {
		t.Fatal("file size wrong")
	}
	if n := k.SysRead(f, 0, UserDataBase, 6000); n != 6000 {
		t.Fatalf("read %d", n)
	}
	// Reads past EOF truncate / return 0.
	if n := k.SysRead(f, f.Size()-100, UserDataBase, 500); n != 100 {
		t.Fatalf("tail read %d", n)
	}
	if n := k.SysRead(f, f.Size(), UserDataBase, 10); n != 0 {
		t.Fatalf("EOF read %d", n)
	}
}

func TestSyscallCountsAndCost(t *testing.T) {
	cfgFast := Optimized()
	cfgSlow := Unoptimized()
	cost := func(cfg Config) clock.Cycles {
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		k.SysNull() // warm the path
		k.SysNull()
		start := k.M.Led.Now()
		for i := 0; i < 10; i++ {
			k.SysNull()
		}
		return (k.M.Led.Now() - start) / 10
	}
	fast, slow := cost(cfgFast), cost(cfgSlow)
	if fast >= slow {
		t.Fatalf("fast syscall (%d) not cheaper than slow (%d)", fast, slow)
	}
}

func TestSwitchLoadsSegments(t *testing.T) {
	k, a := bootTask(t, clock.PPC604At185(), Optimized())
	b := k.Fork()
	k.Switch(b)
	if k.Current() != b {
		t.Fatal("current not switched")
	}
	seg := int(UserDataBase >> 28)
	if k.M.MMU.Segment(seg) != b.Segs[seg] {
		t.Fatal("segment registers not loaded")
	}
	k.Switch(a)
	if k.M.MMU.Segment(seg) != a.Segs[seg] {
		t.Fatal("segment registers not restored")
	}
	if k.M.Mon.CtxSwitches != 2 {
		t.Fatalf("ctx switches = %d", k.M.Mon.CtxSwitches)
	}
}

func TestIdleReclaimSweepsZombies(t *testing.T) {
	cfg := Optimized()
	k, task := bootTask(t, clock.PPC604At185(), cfg)
	k.UserTouchPages(UserDataBase, 32)
	k.flushContext(task) // 32 zombies in the table
	if z := k.M.MMU.HTAB.Occupancy() - k.M.MMU.HTAB.LiveOccupancy(k); z < 32 {
		t.Fatalf("zombies in table = %d", z)
	}
	st := k.RunIdleFor(2_000_000) // long enough to sweep all 2048 groups
	if st.Reclaimed < 32 {
		t.Fatalf("reclaimed %d zombies", st.Reclaimed)
	}
	occ := k.M.MMU.HTAB.Occupancy()
	if occ != k.M.MMU.HTAB.LiveOccupancy(k) {
		t.Fatalf("zombies remain after full sweep: occ=%d", occ)
	}
}

func TestIdleClearModes(t *testing.T) {
	mk := func(mode IdleClearMode) (*Kernel, IdleStats) {
		cfg := Optimized()
		cfg.IdleClear = mode
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		st := k.RunIdleFor(500_000)
		return k, st
	}
	k, st := mk(IdleClearOff)
	if st.Cleared != 0 || k.M.Mem.ClearedLen() != 0 {
		t.Fatal("off mode cleared pages")
	}
	k, st = mk(IdleClearCached)
	if st.Cleared == 0 || k.M.Mem.ClearedLen() == 0 {
		t.Fatal("cached mode banked nothing")
	}
	if k.M.DCache.Residency()[cache.ClassIdle] == 0 {
		t.Fatal("cached clearing must pollute the data cache")
	}
	k, st = mk(IdleClearUncached)
	if st.Cleared == 0 {
		t.Fatal("uncached control mode cleared nothing")
	}
	if k.M.Mem.ClearedLen() != 0 {
		t.Fatal("control mode must not bank pages")
	}
	k, st = mk(IdleClearUncachedList)
	if st.Cleared == 0 || k.M.Mem.ClearedLen() == 0 {
		t.Fatal("uncached+list banked nothing")
	}
	if k.M.DCache.Residency()[cache.ClassIdle] != 0 {
		// Zombie-reclaim scans may fill hash-table lines, but the
		// uncached page clears themselves must leave no residue.
		t.Fatal("uncached clearing polluted the cache")
	}
	// The fast path: a demand-zero fault now skips the synchronous
	// clear.
	before := k.M.Mon.Snapshot()
	k.UserTouch(UserDataBase, 64)
	d := k.M.Mon.Delta(before)
	if d.ClearedPageHits != 1 {
		t.Fatalf("pre-cleared page not used: %+v", d)
	}
}

func TestGetFreePageClearsWhenNoList(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	start := k.M.Led.Now()
	k.UserTouch(UserDataBase, 64) // demand-zero fault, synchronous clear
	elapsed := k.M.Led.Now() - start
	// 128 line stores at the very least.
	if elapsed < 128 {
		t.Fatalf("synchronous clear too cheap: %d cycles", elapsed)
	}
}

func TestContextWrapGlobalFlush(t *testing.T) {
	cfg := Optimized()
	k, task := bootTask(t, clock.PPC604At185(), cfg)
	// Force the allocator close to its limit by replacing it — instead
	// exercise wrap by flushing repeatedly with a tiny max.
	k.ctx = newTinyCtx(cfg.Scatter)
	k.UserTouchPages(UserDataBase, 4)
	for i := 0; i < 10; i++ {
		k.flushContext(task)
	}
	// After wraps the machine is still consistent: touch works.
	k.UserTouchPages(UserDataBase, 4)
	if task.Ctx == 0 {
		t.Fatal("task has no context")
	}
}

func TestCachePageTablesToggle(t *testing.T) {
	run := func(cached bool) uint64 {
		cfg := Unoptimized()
		cfg.CachePageTables = cached
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		k.UserTouchPages(UserMmapBase1MB(k), 128)
		st := k.M.DCache.Stats()
		return st.Fills[cache.ClassPageTable] + st.Fills[cache.ClassHashTable]
	}
	if fills := run(false); fills != 0 {
		t.Fatalf("uncached page tables still filled the cache: %d", fills)
	}
	if fills := run(true); fills == 0 {
		t.Fatal("cached page tables made no fills")
	}
}

// UserMmapBase1MB maps 128 pages and returns the base — helper for
// table-walk-heavy tests.
func UserMmapBase1MB(k *Kernel) arch.EffectiveAddr {
	return k.SysMmap(128)
}
