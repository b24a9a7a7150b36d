// Shape tests: every reproduction target from the paper's evaluation,
// asserted as a direction/magnitude check at Quick scale. These are the
// regression tests for the reproduction itself — if a model change
// breaks a paper claim, one of these fails.
package mmutricks_test

import (
	"testing"

	"mmutricks/internal/ablate"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/oscompare"
)

func newSuite(model clock.CPUModel, cfg kernel.Config) *lmbench.Suite {
	return lmbench.New(kernel.New(machine.New(model), cfg))
}

// Table 1 (§6.2): bypassing the hash table lets the 603/180 keep pace
// with the 604/185 on the LmBench points.
func TestShapeTable1_603KeepsPace(t *testing.T) {
	noHtab := newSuite(clock.PPC603At180(), kernel.Optimized())
	m604 := newSuite(clock.PPC604At185(), kernel.Optimized())

	lat603 := noHtab.PipeLatency(60).Micros
	lat604 := m604.PipeLatency(60).Micros
	if lat603 > 2*lat604 {
		t.Errorf("603 no-htab pipe latency %.1f us not keeping pace with 604 %.1f us", lat603, lat604)
	}
	bw603 := noHtab.PipeBandwidth(1 << 20).MBps
	bw604 := m604.PipeBandwidth(1 << 20).MBps
	if bw603 < bw604/2 {
		t.Errorf("603 no-htab pipe bw %.1f MB/s not keeping pace with 604 %.1f MB/s", bw603, bw604)
	}
}

// Table 1/§6.2: on the 603, direct page-tree reloads beat hash-table
// searches for reload-heavy work.
func TestShapeSec62_DirectReloadsWin(t *testing.T) {
	run := func(useHtab bool) clock.Cycles {
		cfg := kernel.Optimized()
		cfg.UseHTAB = useHtab
		k := kernel.New(machine.New(clock.PPC603At180()), cfg)
		img := k.LoadImage("x", 4)
		k.Spawn(img)
		addr := k.SysMmap(512)
		k.UserTouchPages(addr, 512)
		start := k.M.Led.Now()
		for i := 0; i < 4; i++ {
			k.UserTouchPages(addr, 512)
		}
		return k.M.Led.Now() - start
	}
	htab, direct := run(true), run(false)
	if direct >= htab {
		t.Errorf("direct reloads (%d cycles) should beat hash-table reloads (%d)", direct, htab)
	}
}

// Table 2 / §7: the ~80x mmap-latency collapse from lazy flushing with
// the 20-page cutoff.
func TestShapeTable2_MmapCollapse(t *testing.T) {
	eager := kernel.Optimized()
	eager.UseHTAB = true
	eager.LazyFlush = false
	eager.FlushRangeCutoff = 0
	eager.IdleReclaim = false
	re := newSuite(clock.PPC603At133(), eager).MmapLatency(1024, 5)
	rt := newSuite(clock.PPC603At133(), kernel.Optimized()).MmapLatency(1024, 5)
	if ratio := re.Micros / rt.Micros; ratio < 20 {
		t.Errorf("mmap collapse only %.1fx (eager %.0f us, tuned %.1f us); paper reports ~80x", ratio, re.Micros, rt.Micros)
	}
	if re.Micros < 1000 {
		t.Errorf("eager mmap latency %.0f us — paper's is milliseconds", re.Micros)
	}
}

// Table 3: the OS ordering on every row.
func TestShapeTable3_Ordering(t *testing.T) {
	rows := oscompare.RunTable3(40)
	get := func(name string) oscompare.Row {
		for _, r := range rows {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("missing row %q", name)
		return oscompare.Row{}
	}
	l := get("Linux/PPC")
	u := get("Unoptimized Linux/PPC")
	mk := get("MkLinux")
	rh := get("Rhapsody 5.0")
	aix := get("AIX")

	// Optimized Linux wins everything.
	for _, o := range []oscompare.Row{u, mk, rh, aix} {
		if l.NullUS >= o.NullUS || l.CtxUS >= o.CtxUS || l.PipeUS >= o.PipeUS || l.PipeMBps <= o.PipeMBps {
			t.Errorf("Linux/PPC should beat %s on every row: %+v vs %+v", o.Name, l, o)
		}
	}
	// Null syscall: optimized is at least 3x the unoptimized figure
	// (paper: 9x).
	if u.NullUS < 3*l.NullUS {
		t.Errorf("unoptimized null %.2f us should be >=3x optimized %.2f us", u.NullUS, l.NullUS)
	}
	// Mach systems trail all monolithic kernels on pipes and ctxsw —
	// "the distance micro-kernel designs will have to travel".
	for _, m := range []oscompare.Row{mk, rh} {
		for _, mono := range []oscompare.Row{u, aix} {
			if m.PipeUS <= mono.PipeUS || m.CtxUS <= mono.CtxUS {
				t.Errorf("%s should trail %s on pipes/ctxsw", m.Name, mono.Name)
			}
		}
	}
	// AIX lands between optimized Linux and the Mach systems.
	if !(aix.NullUS > l.NullUS && aix.NullUS < mk.NullUS) {
		t.Errorf("AIX null syscall %.1f us should sit between Linux %.1f and MkLinux %.1f", aix.NullUS, l.NullUS, mk.NullUS)
	}
}

// §5.1: BAT-mapping the kernel reduces TLB and hash misses on the
// kernel compile and empties the kernel's TLB slots.
func TestShapeSec51_BATFootprint(t *testing.T) {
	cfg := kbuild.Default()
	cfg.Units = 3
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8

	base := kernel.Unoptimized()
	bat := base
	bat.KernelBAT = true

	kb := kernel.New(machine.New(clock.PPC604At185()), base)
	rb := kbuild.Run(kb, cfg)
	kbat := kernel.New(machine.New(clock.PPC604At185()), bat)
	rbat := kbuild.Run(kbat, cfg)

	if rbat.Counters.TLBMisses >= rb.Counters.TLBMisses {
		t.Errorf("BAT mapping should reduce TLB misses: %d vs %d", rbat.Counters.TLBMisses, rb.Counters.TLBMisses)
	}
	if rbat.Counters.HTABMisses >= rb.Counters.HTABMisses {
		t.Errorf("BAT mapping should reduce hash misses: %d vs %d", rbat.Counters.HTABMisses, rb.Counters.HTABMisses)
	}
	if got := kbat.M.MMU.TLB.KernelEntries(); got > 4 {
		t.Errorf("kernel TLB slots with BAT = %d, paper's high-water mark is 4", got)
	}
	if kb.M.MMU.TLB.KernelEntries() == 0 {
		t.Error("PTE-mapped kernel should occupy TLB slots")
	}
}

// §6.1: the fast handlers beat the C handlers on context switching and
// pipe latency.
func TestShapeSec61_FastHandlers(t *testing.T) {
	base := kernel.Unoptimized()
	fast := base
	fast.FastReload = true
	sb := newSuite(clock.PPC603At180(), base)
	sf := newSuite(clock.PPC603At180(), fast)
	cb, cf := sb.CtxSwitch(2, 4, 30).Micros, sf.CtxSwitch(2, 4, 30).Micros
	if cf >= cb {
		t.Errorf("fast handlers ctxsw %.2f us should beat C handlers %.2f us", cf, cb)
	}
	lb, lf := sb.PipeLatency(40).Micros, sf.PipeLatency(40).Micros
	if lf >= lb {
		t.Errorf("fast handlers pipe lat %.2f us should beat C handlers %.2f us", lf, lb)
	}
}

// §7: idle reclaim cuts the evict ratio in steady state.
func TestShapeSec7_IdleReclaim(t *testing.T) {
	churn := func(reclaim bool) (evict float64) {
		cfg := kernel.Optimized()
		cfg.UseHTAB = true
		cfg.IdleReclaim = reclaim
		k := kernel.New(machine.New(clock.PPC604At185()), cfg)
		img := k.LoadImage("churn", 8)
		tasks := make([]*kernel.Task, 8)
		for i := range tasks {
			tasks[i] = k.Spawn(img)
		}
		warm := func(rounds int) {
			for r := 0; r < rounds; r++ {
				for _, tk := range tasks {
					k.Switch(tk)
					if r%2 == 1 {
						k.Exec(img)
					}
					k.UserTouchPages(kernel.UserDataBase, 320)
				}
				k.RunIdleFor(60_000)
			}
		}
		warm(20)
		before := k.M.Mon.Snapshot()
		warm(10)
		d := k.M.Mon.Delta(before)
		if err := k.CheckConsistency(); err != nil {
			t.Fatalf("post-churn consistency sweep: %v", err)
		}
		return d.EvictRatio()
	}
	evOff := churn(false)
	evOn := churn(true)
	if evOff < 0.9 {
		t.Errorf("no-reclaim evict ratio %.2f, paper reports >90%%", evOff)
	}
	if evOn >= evOff {
		t.Errorf("idle reclaim should cut the evict ratio: %.2f vs %.2f", evOn, evOff)
	}
}

// §9: the page-clearing variants order as the paper found.
func TestShapeSec9_IdleClearOrdering(t *testing.T) {
	cfg := kbuild.Default()
	cfg.Units = 6
	cfg.HotPages = 6
	cfg.WaitEvery = 10
	run := func(mode kernel.IdleClearMode) float64 {
		kcfg := kernel.Unoptimized()
		kcfg.KernelBAT = true
		kcfg.FastReload = true
		kcfg.IdleClear = mode
		k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
		return kbuild.Run(k, cfg).ComputeSeconds
	}
	off := run(kernel.IdleClearOff)
	cached := run(kernel.IdleClearCached)
	control := run(kernel.IdleClearUncached)
	list := run(kernel.IdleClearUncachedList)

	if cached <= off {
		t.Errorf("cached clearing (%.4f s) should be slower than no clearing (%.4f s)", cached, off)
	}
	if diff := control/off - 1; diff > 0.02 || diff < -0.02 {
		t.Errorf("uncached-no-list control should be neutral: %.4f vs %.4f", control, off)
	}
	if list >= off {
		t.Errorf("uncached+list (%.4f s) should beat no clearing (%.4f s)", list, off)
	}
	if list >= cached {
		t.Error("uncached+list should beat cached clearing")
	}
}

// §8 (future work): uncached table walks eliminate walk-caused cache
// pollution.
func TestShapeSec8_UncachedWalks(t *testing.T) {
	run := func(cached bool) uint64 {
		cfg := kernel.Unoptimized()
		cfg.KernelBAT = true
		cfg.CachePageTables = cached
		k := kernel.New(machine.New(clock.PPC604At185()), cfg)
		img := k.LoadImage("x", 4)
		k.Spawn(img)
		addr := k.SysMmap(512)
		for p := 0; p < 6; p++ {
			k.UserTouchPages(addr, 512)
		}
		st := k.M.DCache.Stats()
		return st.PollutionBy(cache.ClassPageTable) + st.PollutionBy(cache.ClassHashTable)
	}
	if pol := run(false); pol != 0 {
		t.Errorf("uncached walks still polluted the cache: %d lines", pol)
	}
	if pol := run(true); pol == 0 {
		t.Error("cached walks should show pollution under TLB thrash")
	}
}

// §4: the whole simulation is deterministic — identical runs, identical
// cycle counts.
func TestShapeDeterminism(t *testing.T) {
	run := func() clock.Cycles {
		k := kernel.New(machine.New(clock.PPC604At185()), kernel.Optimized())
		s := lmbench.New(k)
		s.NullSyscall(50)
		s.PipeLatency(20)
		s.CtxSwitch(4, 2, 10)
		return k.M.Led.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic simulation: %d vs %d cycles", a, b)
	}
}

// ---------------------------------------------------------------------
// Extension-experiment shapes.
// ---------------------------------------------------------------------

// §4/§5.1: the interaction harness must show the BAT evaporation — a
// positive solo gain that shrinks inside the full stack.
func TestShapeInteractions_BATEvaporation(t *testing.T) {
	bcfg := kbuild.Default()
	bcfg.Units = 3
	bcfg.WorkPages = 320
	bcfg.Passes = 1
	bcfg.StrayRefs = 6
	metric := func(cfg kernel.Config) clock.Cycles {
		k := kernel.New(machine.New(clock.PPC603At180()), cfg)
		r := kbuild.Run(k, bcfg)
		return r.Cycles - r.IdleCycles
	}
	res := ablate.Run(metric, ablate.Knobs())
	if res.CombinedGain <= 0.2 {
		t.Fatalf("combined gain %.2f too small", res.CombinedGain)
	}
	bat := res.Rows[0]
	if bat.SoloGain <= 0 {
		t.Fatalf("BAT solo gain %.3f should be positive", bat.SoloGain)
	}
	if bat.MarginalGain > bat.SoloGain {
		t.Fatalf("BAT marginal (%.3f) should not exceed solo (%.3f) — §5.1's evaporation", bat.MarginalGain, bat.SoloGain)
	}
}

// Memory hierarchy: the latency cliffs sit at the architected
// capacities.
func TestShapeMemHierarchyCliffs(t *testing.T) {
	s := lmbench.New(kernel.New(machine.New(clock.PPC603At180()), kernel.Optimized()))
	l1 := s.MemReadLatency(8<<10, 3000)
	mem := s.MemReadLatency(64<<10, 3000)
	tlb := s.MemReadLatency(2<<20, 3000)
	if l1 > 2 {
		t.Errorf("L1-resident latency %.1f, want ~1 cycle", l1)
	}
	if mem < 20 {
		t.Errorf("past-L1 latency %.1f, want ~memory latency", mem)
	}
	if tlb <= mem+10 {
		t.Errorf("past-TLB latency %.1f should add reload cost over %.1f", tlb, mem)
	}
}

// §9's bzero note: dcbz clears faster (and pollutes just as much —
// covered by kernel tests).
func TestShapeBzeroDCBZFaster(t *testing.T) {
	s := lmbench.New(kernel.New(machine.New(clock.PPC604At185()), kernel.Optimized()))
	stores := s.BzeroBandwidth(64<<10, 4, lmbench.BzeroStores).MBps
	s2 := lmbench.New(kernel.New(machine.New(clock.PPC604At185()), kernel.Optimized()))
	dcbz := s2.BzeroBandwidth(64<<10, 4, lmbench.BzeroDCBZ).MBps
	if dcbz < 1.5*stores {
		t.Errorf("dcbz bzero (%.0f MB/s) should be well above stores (%.0f MB/s)", dcbz, stores)
	}
}

// Swap composes with §6.2: the no-htab kernel pays zero hash searches
// for page-out flushes and is never slower under thrash.
func TestShapeSwapFlush(t *testing.T) {
	run := func(useHtab bool) (clock.Cycles, uint64) {
		cfg := kernel.Optimized()
		cfg.UseHTAB = useHtab
		k := kernel.New(machine.New(clock.PPC603At180()), cfg)
		k.Spawn(k.LoadImage("thrash", 4))
		k.SysBrk(8300)
		k.UserTouchPages(kernel.UserDataBase, 8200)
		before := k.M.Mon.Snapshot()
		start := k.M.Led.Now()
		k.UserTouchPages(kernel.UserDataBase, 8200)
		if err := k.CheckConsistency(); err != nil {
			t.Fatalf("post-thrash consistency sweep: %v", err)
		}
		return k.M.Led.Now() - start, k.M.Mon.Delta(before).HTABFlushSearches
	}
	htabC, htabS := run(true)
	noC, noS := run(false)
	if noS != 0 {
		t.Errorf("no-htab kernel did %d flush searches", noS)
	}
	if htabS == 0 {
		t.Error("hash-table kernel should search on page-out flushes")
	}
	if noC > htabC {
		t.Errorf("no-htab thrash (%d cycles) should not exceed htab (%d)", noC, htabC)
	}
}
