package report

import (
	"context"
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/ppc"
	"mmutricks/internal/vsid"
)

func init() {
	register(Experiment{ID: "sec5.1-bat", Title: "Reducing the OS TLB footprint with BAT mappings (§5.1)", Run: runSec51})
	register(Experiment{ID: "sec5.2-htab-util", Title: "Hash-table utilization vs VSID scatter constant (§5.2)", Run: runSec52})
	register(Experiment{ID: "sec6.1-fastreload", Title: "Hand-optimized TLB reload handlers (§6.1)", Run: runSec61})
	register(Experiment{ID: "sec6.2-nohtab", Title: "Improving hash tables away on the 603 (§6.2)", Run: runSec62})
	register(Experiment{ID: "sec7-lazy", Title: "Lazy TLB flushing and the range-flush cutoff (§7)", Run: runSec7Lazy})
	register(Experiment{ID: "sec7-idle-reclaim", Title: "Idle-task reclamation of zombie PTEs (§7)", Run: runSec7Reclaim})
	register(Experiment{ID: "sec8-ptcache", Title: "Cache misuse on page tables (§8)", Run: runSec8})
	register(Experiment{ID: "sec9-idleclear", Title: "Idle-task page clearing (§9)", Run: runSec9})
}

// ---------------------------------------------------------------------
// §5.1 — BAT-mapping the kernel
// ---------------------------------------------------------------------

// mustConsistent panics when an experiment kernel's translation
// invariants are violated: a silent violation would skew every row
// derived from that kernel, so experiments validate before reporting.
func mustConsistent(k *kernel.Kernel) {
	if err := k.CheckConsistency(); err != nil {
		panic("experiment kernel inconsistent: " + err.Error())
	}
}

func runSec51(ctx context.Context, s Scale) *Table {
	cfg := kbuild.Default()
	cfg.Units = s.pick(4, 16)
	// A compiler arena larger than the 604's 1 MB TLB reach, with
	// heavy pointer chasing, so the kernel's TLB slots are contended
	// the way the paper's full-size compile contends them (their run
	// took a TLB miss every ~365 cycles).
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8

	base := kernel.Unoptimized()
	bat := base
	bat.KernelBAT = true

	type s51 struct {
		r     kbuild.Result
		slots int
	}
	cfgs := []kernel.Config{base, bat}
	var res [2]s51
	RowSet(ctx, 2, func(i int) {
		k := kernel.New(machine.New(clock.PPC604At185()), cfgs[i])
		r := kbuild.Run(k, cfg)
		res[i] = s51{r, k.M.MMU.TLB.KernelEntries()}
	})
	rb, slotsBase := res[0].r, res[0].slots
	rbat, slotsBAT := res[1].r, res[1].slots

	tlbRed := 1 - float64(rbat.Counters.TLBMisses)/float64(rb.Counters.TLBMisses)
	hashRed := 1 - float64(rbat.Counters.HTABMisses)/float64(rb.Counters.HTABMisses)
	wallRed := 1 - rbat.ComputeSeconds/rb.ComputeSeconds

	return &Table{
		ID: "sec5.1-bat", Title: "kernel compile with and without BAT-mapped kernel (604/185)",
		Headers: []string{"metric", "kernel PTEs", "kernel via BAT", "change"},
		Rows: [][]string{
			{"TLB misses", fmt.Sprintf("%d", rb.Counters.TLBMisses), fmt.Sprintf("%d", rbat.Counters.TLBMisses), pct(tlbRed) + " fewer"},
			{"hash-table misses", fmt.Sprintf("%d", rb.Counters.HTABMisses), fmt.Sprintf("%d", rbat.Counters.HTABMisses), pct(hashRed) + " fewer"},
			{"kernel TLB slots (end of run)", fmt.Sprintf("%d", slotsBase), fmt.Sprintf("%d", slotsBAT), ""},
			{"compute time (sim s)", fmt.Sprintf("%.4f", rb.ComputeSeconds), fmt.Sprintf("%.4f", rbat.ComputeSeconds), pct(wallRed) + " faster"},
		},
		Paper: [][]string{
			{"TLB misses", "219M", "197M", "10% fewer"},
			{"hash-table misses", "1M", "813K", "20% fewer"},
			{"kernel TLB slots", "~33% of 256", "<= 4", ""},
			{"wall clock", "10 min", "8 min", "20% faster"},
		},
		Notes: []string{
			"the compile is scaled down ~3 orders of magnitude; reductions, not absolute counts, are the reproduction target",
		},
	}
}

// ---------------------------------------------------------------------
// §5.2 — hash-table utilization vs the VSID scatter constant
// ---------------------------------------------------------------------

// sec52Utilization offers the hash table one full capacity's worth of
// PTEs from many similar address spaces and reports how many of them
// the table actually retains — the paper's "use of the hash table".
// Hash hot spots make colliding PTEs evict one another inside full
// buckets while other buckets sit empty, so bad scatter constants (and
// 8192 resident kernel PTEs) depress the retained fraction.
func sec52Utilization(scatter uint32, kernelPTEs bool, procs, pagesPerProc int) (retained float64, occupancy float64) {
	h := ppc.NewHTAB(arch.DefaultHTABGroups, 0x200000)
	if kernelPTEs {
		// The pre-§5.1 kernel kept its linear mapping in the table:
		// 8192 PTEs under the fixed kernel VSIDs.
		for pa := 0; pa < 32<<20; pa += arch.PageSize {
			ea := arch.EffectiveAddr(uint32(arch.KernelBase) + uint32(pa))
			v := vsid.For(0, ea.SegIndex(), scatter)
			h.Insert(arch.VPNOf(v, ea), arch.PhysAddr(pa).Frame(), false, nil, nil)
		}
	}
	// Similar user address spaces: text low in segment 0, heap in
	// segment 1, stack high in segment 7 — "the logical address spaces
	// of processes tend to be similar" (§5.2).
	var offered []arch.VPN
	for p := 1; p <= procs; p++ {
		for i := 0; i < pagesPerProc; i++ {
			var ea arch.EffectiveAddr
			switch i % 4 {
			case 0, 1:
				ea = kernel.UserTextBase + arch.EffectiveAddr((i/2)*arch.PageSize)
			case 2:
				ea = kernel.UserDataBase + arch.EffectiveAddr((i/4)*arch.PageSize)
			default:
				ea = kernel.UserStackTop - arch.EffectiveAddr((i/4+1)*arch.PageSize)
			}
			v := vsid.For(uint32(p), ea.SegIndex(), scatter)
			vpn := arch.VPNOf(v, ea)
			h.Insert(vpn, arch.PFN(i), false, nil, nil)
			offered = append(offered, vpn)
		}
	}
	found := 0
	for _, vpn := range offered {
		if pte, _, _ := h.Search(vpn, nil); pte != nil {
			found++
		}
	}
	return float64(found) / float64(len(offered)),
		float64(h.Occupancy()) / float64(h.Capacity())
}

func runSec52(ctx context.Context, s Scale) *Table {
	procs := s.pick(64, 128)
	pages := arch.DefaultHTABEntries / procs // offer exactly capacity
	type cfg struct {
		name    string
		scatter uint32
		kernel  bool
	}
	cases := []cfg{
		{"VSID=pid, kernel PTEs in table", 1, true},
		{"tuned scatter, kernel PTEs in table", vsid.DefaultScatter, true},
		{"tuned scatter, kernel via BAT", vsid.DefaultScatter, false},
	}
	rows := make([][]string, len(cases))
	RowSet(ctx, len(cases), func(i int) {
		c := cases[i]
		ret, occ := sec52Utilization(c.scatter, c.kernel, procs, pages)
		rows[i] = []string{c.name, scatterName(c.scatter), pct(ret), pct(occ)}
	})
	return &Table{
		ID: "sec5.2-htab-util", Title: "hash-table utilization under PTE pressure",
		Headers: []string{"configuration", "scatter", "PTEs retained", "table occupancy"},
		Rows:    rows,
		Paper: [][]string{
			{"initial", "", "37%", ""},
			{"after tuning the constant", "", "57%", ""},
			{"kernel PTEs removed + fine tuning", "", "75%", ""},
		},
		Notes: []string{
			"one hash-table capacity (16384 PTEs) of similar address spaces is offered; 'PTEs retained' is the fraction that survive bucket-overflow eviction — the paper's 'use of the hash table'",
			"shape target: monotone improvement from scatter tuning and from removing kernel PTEs (§5.2)",
		},
	}
}

// ---------------------------------------------------------------------
// §6.1 — fast reload handlers
// ---------------------------------------------------------------------

func runSec61(ctx context.Context, s Scale) *Table {
	base := kernel.Unoptimized()
	fast := base
	fast.FastReload = true

	run := func(cfg kernel.Config) (ctx, lat float64) {
		k := kernel.New(machine.New(clock.PPC603At180()), cfg)
		suite := lmbench.New(k)
		c := suite.CtxSwitch(2, 4, s.pick(20, 120))
		l := suite.PipeLatency(s.pick(30, 200))
		return c.Micros, l.Micros
	}
	cfgs := []kernel.Config{base, fast}
	var res [2][2]float64
	RowSet(ctx, 2, func(i int) {
		c, l := run(cfgs[i])
		res[i] = [2]float64{c, l}
	})
	bc, bl := res[0][0], res[0][1]
	fc, fl := res[1][0], res[1][1]
	return &Table{
		ID: "sec6.1-fastreload", Title: "hand-optimized miss handlers vs the original C handlers (603/180)",
		Headers: []string{"metric", "C handlers", "fast handlers", "change"},
		Rows: [][]string{
			{"ctxsw (2p/16K)", us(bc), us(fc), pct(1-fc/bc) + " faster"},
			{"pipe lat.", us(bl), us(fl), pct(1-fl/bl) + " faster"},
		},
		Paper: [][]string{
			{"ctxsw", "", "", "33% faster"},
			{"pipe lat. (communication latencies)", "", "", "15% faster"},
		},
		Notes: []string{
			"the paper also reports ~15% general wall-clock improvement for user code; see sec6.2's kbuild columns",
		},
	}
}

// ---------------------------------------------------------------------
// §6.2 — removing the hash table on the 603
// ---------------------------------------------------------------------

func runSec62(ctx context.Context, s Scale) *Table {
	cfg := kbuild.Default()
	cfg.Units = s.pick(4, 16)
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8
	withHtab := kernel.Optimized()
	withHtab.UseHTAB = true
	noHtab := kernel.Optimized()

	runs := []struct {
		model clock.CPUModel
		kcfg  kernel.Config
	}{
		{clock.PPC603At180(), withHtab},
		{clock.PPC603At180(), noHtab},
		{clock.PPC604At185(), kernel.Optimized()},
	}
	var res [3]kbuild.Result
	RowSet(ctx, len(runs), func(i int) {
		res[i] = kbuild.Run(kernel.New(machine.New(runs[i].model), runs[i].kcfg), cfg)
	})
	r1, r2, r3 := res[0], res[1], res[2]

	return &Table{
		ID: "sec6.2-nohtab", Title: "kernel compile: 603 with/without the hash table vs 604",
		Headers: []string{"machine", "kernel compile (sim s)", "vs 603 htab"},
		Rows: [][]string{
			{"603/180, hash-table reloads", fmt.Sprintf("%.3f", r1.ComputeSeconds), "1.00x"},
			{"603/180, direct page-tree reloads", fmt.Sprintf("%.3f", r2.ComputeSeconds), ratio(r1.ComputeSeconds, r2.ComputeSeconds) + " faster"},
			{"604/185, hardware reloads", fmt.Sprintf("%.3f", r3.ComputeSeconds), ratio(r1.ComputeSeconds, r3.ComputeSeconds)},
		},
		Paper: [][]string{
			{"kernel compile time reduction from removing the hash table", "5%", ""},
			{"180 MHz 603 keeps pace with 185 MHz 604", "", ""},
		},
		Notes: []string{
			"shape target: direct reloads beat hash-table searches on the 603, closing the gap to the 604 (Table 1 covers the LmBench view)",
		},
	}
}

// ---------------------------------------------------------------------
// §7 — lazy flushing
// ---------------------------------------------------------------------

func runSec7Lazy(ctx context.Context, s Scale) *Table {
	eager := kernel.Optimized()
	eager.UseHTAB = true
	eager.LazyFlush = false
	eager.FlushRangeCutoff = 0
	eager.IdleReclaim = false
	lazy := kernel.Optimized()
	lazy.UseHTAB = true

	run := func(cfg kernel.Config) (mmap, ctx8 float64, bw float64) {
		k := kernel.New(machine.New(clock.PPC603At133()), cfg)
		suite := lmbench.New(k)
		m := suite.MmapLatency(mmapPagesTable2, s.pick(4, 12))
		c := suite.CtxSwitch(8, 4, s.pick(8, 40))
		b := suite.PipeBandwidth(s.pick(1<<20, 4<<20))
		return m.Micros, c.Micros, b.MBps
	}
	cfgs := []kernel.Config{eager, lazy}
	var res [2][3]float64
	RowSet(ctx, 2, func(i int) {
		m, c, b := run(cfgs[i])
		res[i] = [3]float64{m, c, b}
	})
	em, ec, eb := res[0][0], res[0][1], res[0][2]
	lm, lc, lb := res[1][0], res[1][1], res[1][2]
	return &Table{
		ID: "sec7-lazy", Title: "lazy VSID flushing with the 20-page range cutoff (603/133)",
		Headers: []string{"metric", "eager flushing", "lazy + cutoff", "change"},
		Rows: [][]string{
			{"mmap lat. (4MB)", us(em), us(lm), ratio(em, lm) + " faster"},
			{"ctxsw (8p/16K)", us(ec), us(lc), ""},
			{"pipe bw", mbps(eb), mbps(lb), ""},
		},
		Paper: [][]string{
			{"mmap lat.", "3240 us", "41 us", "80x faster"},
			{"ctxsw (8p)", "20 us", "17 us", ""},
			{"pipe bw", "71 MB/s", "76 MB/s", ""},
		},
		Notes: []string{
			"the mmap collapse is the headline; the pipe/ctxsw rows moved a few percent in the paper and are secondary",
		},
	}
}

// ---------------------------------------------------------------------
// §7 — idle-task zombie reclamation
// ---------------------------------------------------------------------

// sec7Churn creates steady-state context churn: processes repeatedly
// exec (flushing their context and leaving zombies under lazy
// flushing), refault their working sets, and yield idle time between
// rounds. Enough rounds fill the 16384-entry table with zombie PTEs.
func sec7Churn(k *kernel.Kernel, tasks []*kernel.Task, img *kernel.Image, rounds, wsPages int) {
	for r := 0; r < rounds; r++ {
		for _, t := range tasks {
			k.Switch(t)
			if r%2 == 1 {
				k.Exec(img) // context flush: zombies under lazy mode
			}
			k.UserTouchPages(kernel.UserDataBase, wsPages)
			k.UserRun(0, 500)
		}
		k.RunIdleFor(clock.Cycles(60_000))
	}
}

func runSec7Reclaim(ctx context.Context, s Scale) *Table {
	warm := s.pick(30, 100)
	meas := s.pick(15, 60)
	const procs, ws = 8, 320
	run := func(reclaim bool) (ev float64, occ, live int, hit float64, zr uint64) {
		cfg := kernel.Optimized()
		cfg.UseHTAB = true
		cfg.IdleReclaim = reclaim
		k := kernel.New(machine.New(clock.PPC604At185()), cfg)
		img := k.LoadImage("churn", 8)
		tasks := make([]*kernel.Task, procs)
		for i := range tasks {
			tasks[i] = k.Spawn(img)
		}
		// Warm until the table reaches steady state, then measure.
		sec7Churn(k, tasks, img, warm, ws)
		before := k.M.Mon.Snapshot()
		sec7Churn(k, tasks, img, meas, ws)
		d := k.M.Mon.Delta(before)
		mustConsistent(k)
		return d.EvictRatio(), k.M.MMU.HTAB.Occupancy(),
			k.M.MMU.HTAB.LiveOccupancy(k),
			d.HTABHitRate(), d.ZombiesReclaimed
	}
	type s7 struct {
		ev        float64
		occ, live int
		hit       float64
		zr        uint64
	}
	var res [2]s7
	RowSet(ctx, 2, func(i int) {
		ev, occ, live, hit, zr := run(i == 1)
		res[i] = s7{ev, occ, live, hit, zr}
	})
	evOff, occOff, liveOff, hitOff := res[0].ev, res[0].occ, res[0].live, res[0].hit
	evOn, occOn, liveOn, hitOn, zrOn := res[1].ev, res[1].occ, res[1].live, res[1].hit, res[1].zr
	return &Table{
		ID: "sec7-idle-reclaim", Title: "idle-task reclamation of zombie hash-table PTEs (604/185, steady state)",
		Headers: []string{"metric", "no reclaim", "idle reclaim", ""},
		Rows: [][]string{
			{"evict ratio (reloads replacing valid PTEs)", pct(evOff), pct(evOn), ""},
			{"valid PTEs in table (of 16384)", fmt.Sprintf("%d", occOff), fmt.Sprintf("%d", occOn), ""},
			{"live (non-zombie) PTEs", fmt.Sprintf("%d", liveOff), fmt.Sprintf("%d", liveOn), ""},
			{"hash hit rate on TLB miss", pct(hitOff), pct(hitOn), ""},
			{"zombies reclaimed (window)", "0", fmt.Sprintf("%d", zrOn), ""},
		},
		Paper: [][]string{
			{"evict ratio", ">90%", "~30%", ""},
			{"valid PTEs in table", "fills (zombies never invalidated)", "", ""},
			{"live PTEs", "600-700", "1400-2200", ""},
			{"hash hit rate", "85%", "up to 98%", ""},
		},
		Notes: []string{
			"shape target: reclaim lowers the evict ratio, raises live occupancy and the hash hit rate (§7)",
			"measured over a steady-state window after warm-up churn",
		},
	}
}

// ---------------------------------------------------------------------
// §8 — cache misuse on page tables
// ---------------------------------------------------------------------

func runSec8(ctx context.Context, s Scale) *Table {
	// A TLB-thrashing working set: more pages than TLB entries, so
	// every pass reloads heavily while the task also has cache-hot
	// compute data.
	run := func(cachePT bool) (uint64, uint64, float64) {
		cfg := kernel.Unoptimized()
		cfg.KernelBAT = true // isolate the page-table effect
		cfg.CachePageTables = cachePT
		k := kernel.New(machine.New(clock.PPC604At185()), cfg)
		img := k.LoadImage("thrash", 4)
		t := k.Spawn(img)
		k.Switch(t)
		_ = t
		addr := k.SysMmap(512) // 2 MB: 512 pages >> 256 TLB entries
		passes := s.pick(6, 24)
		start := k.M.Led.Now()
		for p := 0; p < passes; p++ {
			k.UserTouchPages(addr, 512)
			k.UserTouch(kernel.UserDataBase, 8*1024) // hot compute data
		}
		st := k.M.DCache.Stats()
		pollution := st.PollutionBy(cache.ClassHashTable) + st.PollutionBy(cache.ClassPageTable)
		mustConsistent(k)
		return st.Misses[cache.ClassUser], pollution, k.M.Led.Seconds(k.M.Led.Now() - start)
	}
	type s8 struct {
		misses, pol uint64
		secs        float64
	}
	var res [2]s8
	RowSet(ctx, 2, func(i int) {
		m, p, t := run(i == 0)
		res[i] = s8{m, p, t}
	})
	mCached, polCached, tCached := res[0].misses, res[0].pol, res[0].secs
	mUncached, polUncached, tUncached := res[1].misses, res[1].pol, res[1].secs
	return &Table{
		ID: "sec8-ptcache", Title: "cache pollution from caching page-table walks (604/185)",
		Headers: []string{"metric", "cached walks", "uncached walks", "change"},
		Rows: [][]string{
			{"user-data cache misses", fmt.Sprintf("%d", mCached), fmt.Sprintf("%d", mUncached), pct(1-float64(mUncached)/float64(mCached)) + " fewer"},
			{"lines evicted by walk traffic", fmt.Sprintf("%d", polCached), fmt.Sprintf("%d", polUncached), ""},
			{"workload time (sim s)", fmt.Sprintf("%.4f", tCached), fmt.Sprintf("%.4f", tUncached), ""},
		},
		Paper: [][]string{
			{"", "34 memory accesses per hash-table fill; up to 18 new cache entries per reload", "", ""},
		},
		Notes: []string{
			"§8 predicts but does not measure this effect ('we have not yet performed experiments to quantify'); §10.1/§10.2 propose the uncached variant — this is the paper's future-work experiment, implemented",
			"whether uncached walks win overall depends on the hash hit rate: uncached searches pay memory latency every time (the trade-off the paper flags in §9's overhead caveat)",
		},
	}
}

// ---------------------------------------------------------------------
// §9 — idle-task page clearing
// ---------------------------------------------------------------------

func runSec9(ctx context.Context, s Scale) *Table {
	cfg := kbuild.Default()
	cfg.Units = s.pick(6, 24)
	// A hot-set-heavy compile profile with frequent short I/O stalls:
	// the regime §9 describes, where the idle task runs "quite often"
	// and the compiler's reused state is cache-resident between stalls.
	cfg.HotPages = 6
	cfg.WaitEvery = 10
	run := func(mode kernel.IdleClearMode) kbuild.Result {
		kcfg := kernel.Unoptimized()
		kcfg.KernelBAT = true // the §9 experiments ran on the improved kernel
		kcfg.FastReload = true
		kcfg.IdleClear = mode
		k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
		return kbuild.Run(k, cfg)
	}
	modes := []kernel.IdleClearMode{
		kernel.IdleClearOff, kernel.IdleClearCached,
		kernel.IdleClearUncached, kernel.IdleClearUncachedList,
	}
	var res [4]kbuild.Result
	RowSet(ctx, len(modes), func(i int) { res[i] = run(modes[i]) })
	off, cached, unc, list := res[0], res[1], res[2], res[3]
	row := func(name string, r kbuild.Result) []string {
		return []string{
			name,
			fmt.Sprintf("%.4f", r.ComputeSeconds),
			ratio(r.ComputeSeconds, off.ComputeSeconds),
			fmt.Sprintf("%d", r.Counters.ClearedPageHits),
			fmt.Sprintf("%d", r.Idle.Cleared),
		}
	}
	return &Table{
		ID: "sec9-idleclear", Title: "idle-task page clearing variants on the kernel compile (604/185)",
		Headers: []string{"variant", "compile compute (sim s)", "vs off", "pre-cleared pages used", "pages cleared by idle"},
		Rows: [][]string{
			row("no idle clearing", off),
			row("cached clearing + list", cached),
			row("uncached clearing, no list (control)", unc),
			row("uncached clearing + list", list),
		},
		Paper: [][]string{
			{"no idle clearing", "baseline", "1.00x", "", ""},
			{"cached clearing + list", "nearly twice as long", "~2x", "", ""},
			{"uncached, no list", "no loss or gain", "~1.00x", "", ""},
			{"uncached + list", "much faster", "<1x", "", ""},
		},
		Notes: []string{
			"shape target: cached clearing slower than baseline from cache pollution; uncached control neutral; uncached+list fastest (§9)",
		},
	}
}
