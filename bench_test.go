// Benchmarks: one testing.B benchmark (or sub-benchmark group) per
// table and figure in the paper's evaluation, plus ablations over the
// cost constants DESIGN.md calls out. Each op is one unit of the
// corresponding workload on the simulator; the custom "sim-us/op" and
// "sim-MB/s" metrics report the *simulated* time, which is the quantity
// the paper's tables contain (host ns/op only measures the simulator).
package mmutricks_test

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/oscompare"
	"mmutricks/internal/ppc"
)

// simKernel builds a machine+kernel+task ready for benchmarking.
func simKernel(model clock.CPUModel, cfg kernel.Config) *kernel.Kernel {
	k := kernel.New(machine.New(model), cfg)
	img := k.LoadImage("bench", 8)
	k.Spawn(img)
	return k
}

// reportSimMicros attaches the simulated per-op latency metric.
func reportSimMicros(b *testing.B, k *kernel.Kernel, start clock.Cycles) {
	b.ReportMetric(k.M.Led.Micros(k.M.Led.Now()-start)/float64(b.N), "sim-us/op")
}

// ---------------------------------------------------------------------
// Figure 1: the translation path itself.
// ---------------------------------------------------------------------

func BenchmarkFigure1Translate(b *testing.B) {
	b.Run("bat-hit", func(b *testing.B) {
		k := simKernel(clock.PPC604At185(), kernel.Optimized())
		mmu := k.M.MMU
		for i := 0; i < b.N; i++ {
			mmu.Translate(0xC0001000, false)
		}
	})
	b.Run("tlb-hit", func(b *testing.B) {
		k := simKernel(clock.PPC604At185(), kernel.Optimized())
		k.UserTouch(kernel.UserDataBase, 64) // fault the page in
		mmu := k.M.MMU
		for i := 0; i < b.N; i++ {
			mmu.Translate(kernel.UserDataBase, false)
		}
	})
	b.Run("hash-search", func(b *testing.B) {
		htab := ppc.NewHTAB(arch.DefaultHTABGroups, 0x200000)
		vpn := arch.VPNOf(0x42, 0x00001000)
		htab.Insert(vpn, 7, false, nil, nil)
		for i := 0; i < b.N; i++ {
			htab.Search(vpn, nil)
		}
	})
}

// ---------------------------------------------------------------------
// Table 1: direct TLB reloads. One sub-benchmark per machine column
// over the reload-heaviest row (a working set beyond TLB reach).
// ---------------------------------------------------------------------

func BenchmarkTable1Reloads(b *testing.B) {
	cols := []struct {
		name  string
		model clock.CPUModel
		htab  bool
	}{
		{"603-180-htab", clock.PPC603At180(), true},
		{"603-180-nohtab", clock.PPC603At180(), false},
		{"604-185", clock.PPC604At185(), false},
		{"604-200", clock.PPC604At200(), false},
	}
	for _, c := range cols {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.UseHTAB = c.htab
			k := simKernel(c.model, cfg)
			addr := k.SysMmap(512)
			k.UserTouchPages(addr, 512)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.UserTouchPages(addr, 512)
			}
			reportSimMicros(b, k, start)
		})
	}
}

func BenchmarkTable1PipeLatency(b *testing.B) {
	for _, c := range []struct {
		name  string
		model clock.CPUModel
		htab  bool
	}{
		{"603-180-htab", clock.PPC603At180(), true},
		{"603-180-nohtab", clock.PPC603At180(), false},
		{"604-185", clock.PPC604At185(), false},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.UseHTAB = c.htab
			s := lmbench.New(kernel.New(machine.New(c.model), cfg))
			r := s.PipeLatency(b.N/2 + 2)
			b.ReportMetric(r.Micros, "sim-us/op")
		})
	}
}

// ---------------------------------------------------------------------
// Table 2: the mmap row under each flush strategy.
// ---------------------------------------------------------------------

func BenchmarkTable2Mmap(b *testing.B) {
	for _, c := range []struct {
		name string
		lazy bool
	}{{"eager", false}, {"tuned", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.UseHTAB = true
			if !c.lazy {
				cfg.LazyFlush = false
				cfg.FlushRangeCutoff = 0
				cfg.IdleReclaim = false
			}
			k := simKernel(clock.PPC603At133(), cfg)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				a := k.SysMmap(256)
				k.SysMunmap(a, 256)
			}
			reportSimMicros(b, k, start)
		})
	}
}

// ---------------------------------------------------------------------
// Table 3: null syscall and pipe latency per OS personality.
// ---------------------------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	for _, p := range oscompare.Personalities() {
		p := p
		b.Run(p.Name+"/nullsys", func(b *testing.B) {
			r := oscompare.NewRunner(p, clock.PPC604At133())
			res := r.NullSyscall(b.N)
			b.ReportMetric(res.Micros, "sim-us/op")
		})
		b.Run(p.Name+"/pipelat", func(b *testing.B) {
			r := oscompare.NewRunner(p, clock.PPC604At133())
			res := r.PipeLatency(b.N/2 + 2)
			b.ReportMetric(res.Micros, "sim-us/op")
		})
	}
}

// ---------------------------------------------------------------------
// §5.1: kernel compile with and without the BAT-mapped kernel.
// ---------------------------------------------------------------------

func BenchmarkSec51Kbuild(b *testing.B) {
	cfg := kbuild.Default()
	cfg.Units = 2
	cfg.WorkPages = 320
	cfg.Passes = 1
	cfg.StrayRefs = 8
	for _, c := range []struct {
		name string
		bat  bool
	}{{"kernel-ptes", false}, {"kernel-bat", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kcfg := kernel.Unoptimized()
				kcfg.KernelBAT = c.bat
				k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
				r := kbuild.Run(k, cfg)
				b.ReportMetric(r.ComputeSeconds*1000, "sim-ms/compile")
			}
		})
	}
}

// ---------------------------------------------------------------------
// §5.2: hash-table population quality per scatter constant.
// ---------------------------------------------------------------------

func BenchmarkSec52Scatter(b *testing.B) {
	for _, c := range []struct {
		name    string
		scatter uint32
	}{{"pid", 1}, {"pow2", 2048}, {"tuned", 897}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := ppc.NewHTAB(arch.DefaultHTABGroups, 0)
				for p := uint32(1); p <= 64; p++ {
					for pg := 0; pg < 256; pg++ {
						ea := kernel.UserTextBase + arch.EffectiveAddr(pg*arch.PageSize)
						h.Insert(arch.VPNOf(arch.VSID(p*c.scatter)&arch.VSIDMask, ea), arch.PFN(pg), false, nil, nil)
					}
				}
				b.ReportMetric(float64(h.Occupancy())/float64(h.Capacity())*100, "occupancy-%")
			}
		})
	}
}

// ---------------------------------------------------------------------
// §6.1: the reload handlers themselves.
// ---------------------------------------------------------------------

func BenchmarkSec61ReloadPath(b *testing.B) {
	for _, c := range []struct {
		name string
		fast bool
	}{{"c-handlers", false}, {"fast-handlers", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Unoptimized()
			cfg.FastReload = c.fast
			k := simKernel(clock.PPC603At180(), cfg)
			k.UserTouchPages(kernel.UserDataBase, 64)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.M.MMU.TLB.InvalidateAll()
				k.UserTouchPages(kernel.UserDataBase, 64)
			}
			reportSimMicros(b, k, start)
		})
	}
}

// ---------------------------------------------------------------------
// §6.2: kernel compile with and without the hash table on the 603.
// ---------------------------------------------------------------------

func BenchmarkSec62Kbuild(b *testing.B) {
	cfg := kbuild.Default()
	cfg.Units = 2
	cfg.WorkPages = 320
	cfg.Passes = 1
	cfg.StrayRefs = 8
	for _, c := range []struct {
		name string
		htab bool
	}{{"htab", true}, {"no-htab", false}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kcfg := kernel.Optimized()
				kcfg.UseHTAB = c.htab
				k := kernel.New(machine.New(clock.PPC603At180()), kcfg)
				r := kbuild.Run(k, cfg)
				b.ReportMetric(r.ComputeSeconds*1000, "sim-ms/compile")
			}
		})
	}
}

// ---------------------------------------------------------------------
// §7: flush strategies head to head.
// ---------------------------------------------------------------------

func BenchmarkSec7Flush(b *testing.B) {
	b.Run("eager-context-flush", func(b *testing.B) {
		cfg := kernel.Optimized()
		cfg.UseHTAB = true
		cfg.LazyFlush = false
		cfg.FlushRangeCutoff = 0
		k := simKernel(clock.PPC604At185(), cfg)
		addr := k.SysMmap(64)
		b.ResetTimer()
		start := k.M.Led.Now()
		for i := 0; i < b.N; i++ {
			k.UserTouchPages(addr, 64)
			k.FlushTaskContext()
		}
		reportSimMicros(b, k, start)
	})
	b.Run("lazy-context-flush", func(b *testing.B) {
		k := simKernel(clock.PPC604At185(), kernel.Optimized())
		addr := k.SysMmap(64)
		b.ResetTimer()
		start := k.M.Led.Now()
		for i := 0; i < b.N; i++ {
			k.UserTouchPages(addr, 64)
			k.FlushTaskContext()
		}
		reportSimMicros(b, k, start)
	})
}

func BenchmarkSec7ReclaimScan(b *testing.B) {
	k := simKernel(clock.PPC604At185(), kernel.Optimized())
	// Fill the table with zombies.
	for i := 0; i < 40; i++ {
		k.UserTouchPages(kernel.UserDataBase, 64)
		k.FlushTaskContext()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunIdleFor(10_000)
	}
}

// ---------------------------------------------------------------------
// §8: translation under cached vs uncached table walks.
// ---------------------------------------------------------------------

func BenchmarkSec8Walks(b *testing.B) {
	for _, c := range []struct {
		name   string
		cached bool
	}{{"cached-walks", true}, {"uncached-walks", false}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Unoptimized()
			cfg.KernelBAT = true
			cfg.CachePageTables = c.cached
			k := simKernel(clock.PPC604At185(), cfg)
			addr := k.SysMmap(512)
			k.UserTouchPages(addr, 512)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.UserTouchPages(addr, 512)
			}
			reportSimMicros(b, k, start)
		})
	}
}

// ---------------------------------------------------------------------
// §9: the four page-clearing variants.
// ---------------------------------------------------------------------

func BenchmarkSec9IdleClear(b *testing.B) {
	cfg := kbuild.Default()
	cfg.Units = 2
	cfg.HotPages = 6
	cfg.WaitEvery = 10
	for _, mode := range []kernel.IdleClearMode{
		kernel.IdleClearOff, kernel.IdleClearCached,
		kernel.IdleClearUncached, kernel.IdleClearUncachedList,
	} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kcfg := kernel.Unoptimized()
				kcfg.KernelBAT = true
				kcfg.FastReload = true
				kcfg.IdleClear = mode
				k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
				r := kbuild.Run(k, cfg)
				b.ReportMetric(r.ComputeSeconds*1000, "sim-ms/compile")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations over the paper-derived cost constants (DESIGN.md §4): how
// sensitive the headline results are to the measured hardware costs.
// ---------------------------------------------------------------------

func BenchmarkAblationMemLatency(b *testing.B) {
	for _, lat := range []int{15, 34, 60} {
		lat := lat
		b.Run(clockName(lat), func(b *testing.B) {
			model := clock.PPC604At185()
			model.MemLatency = lat
			s := lmbench.New(kernel.New(machine.New(model), kernel.Optimized()))
			r := s.PipeBandwidth(1 << 20)
			b.ReportMetric(r.MBps, "sim-MB/s")
			for i := 0; i < b.N; i++ {
				_ = i
			}
		})
	}
}

func clockName(lat int) string {
	switch {
	case lat < 20:
		return "fast-memory"
	case lat < 40:
		return "stock-memory"
	default:
		return "slow-memory"
	}
}

func BenchmarkAblationHashMissInterrupt(b *testing.B) {
	for _, c := range []struct {
		name   string
		cycles int
	}{{"paper-91c", 91}, {"half-45c", 45}, {"double-182c", 182}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			model := clock.PPC604At185()
			model.HashMissInterrupt = c.cycles
			k := kernel.New(machine.New(model), kernel.Optimized())
			img := k.LoadImage("bench", 8)
			k.Spawn(img)
			addr := k.SysMmap(256)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.UserTouchPages(addr, 256)
				k.FlushTaskContext() // force fresh hash misses each round
			}
			reportSimMicros(b, k, start)
		})
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks: COW fork, the rejected on-demand reclaim, the
// per-process frame-buffer BAT, the §10 proposals, and the unified-vs-
// split TLB modeling ablation.
// ---------------------------------------------------------------------

func BenchmarkAblationCOWFork(b *testing.B) {
	for _, c := range []struct {
		name string
		cow  bool
	}{{"eager-copy", false}, {"cow", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.COWFork = c.cow
			k := simKernel(clock.PPC604At185(), cfg)
			k.UserTouch(kernel.UserDataBase, 32*arch.PageSize)
			parent := k.Current()
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				child := k.Fork()
				k.Switch(child)
				k.UserTouch(kernel.UserDataBase, 2*arch.PageSize) // child dirties a little
				k.Exit()
				k.Switch(parent)
				k.Wait(child)
			}
			reportSimMicros(b, k, start)
		})
	}
}

func BenchmarkAblationSplitTLB(b *testing.B) {
	for _, c := range []struct {
		name  string
		split bool
	}{{"unified-128", false}, {"split-64+64", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			model := clock.PPC603At180()
			model.SplitTLB = c.split
			k := simKernel(model, kernel.Optimized())
			addr := k.SysMmap(192)
			k.UserTouchPages(addr, 192)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.UserRun(0, 400) // instruction side
				k.UserTouchPages(addr, 192)
			}
			reportSimMicros(b, k, start)
		})
	}
}

func BenchmarkFBWrite(b *testing.B) {
	for _, c := range []struct {
		name string
		bat  bool
	}{{"pte-mapped", false}, {"fb-bat", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.FBBAT = c.bat
			k := simKernel(clock.PPC604At185(), cfg)
			k.IoremapFB()
			// An X-server-like mix: blits interleaved with a working
			// set near TLB reach, so FB translations compete for slots
			// unless the BAT carries them.
			ws := k.SysMmap(224)
			k.UserTouchPages(ws, 224)
			k.FBWrite(0, 64*arch.PageSize) // fault in / warm
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.FBWrite(0, 64*arch.PageSize)
				k.UserTouchPages(ws, 224)
			}
			reportSimMicros(b, k, start)
		})
	}
}

func BenchmarkIdleCacheLock(b *testing.B) {
	for _, c := range []struct {
		name string
		lock bool
	}{{"unlocked", false}, {"locked", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := kernel.Optimized()
			cfg.UseHTAB = true
			cfg.IdleClear = kernel.IdleClearCached
			cfg.IdleCacheLock = c.lock
			k := simKernel(clock.PPC604At185(), cfg)
			k.UserTouch(kernel.UserDataBase, 24*1024)
			b.ResetTimer()
			start := k.M.Led.Now()
			for i := 0; i < b.N; i++ {
				k.RunIdleFor(50_000)
				k.UserTouch(kernel.UserDataBase, 24*1024) // refault the hot set
			}
			reportSimMicros(b, k, start)
		})
	}
}

func BenchmarkLatSig(b *testing.B) {
	for _, cfgName := range []string{"unoptimized", "optimized"} {
		cfgName := cfgName
		b.Run(cfgName, func(b *testing.B) {
			cfg, _ := kernel.Named(cfgName)
			s := lmbench.New(kernel.New(machine.New(clock.PPC604At133()), cfg))
			r := s.SignalLatency(b.N + 1)
			b.ReportMetric(r.Micros, "sim-us/op")
		})
	}
}

func BenchmarkMemHierarchy(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"l1-resident-16k", 16 << 10}, {"mem-resident-256k", 256 << 10}, {"past-tlb-2m", 2 << 20}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			s := lmbench.New(kernel.New(machine.New(clock.PPC604At185()), kernel.Optimized()))
			cyc := s.MemReadLatency(c.size, b.N+1000)
			b.ReportMetric(cyc, "sim-cycles/load")
		})
	}
}
