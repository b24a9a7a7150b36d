// Runnable examples: each prints what README and EXPERIMENTS.md show,
// and go test checks the bytes against its Output block. Each is a
// view that no registered experiment prints; `mmu report -experiment
// <id>` runs the experiment it belongs to.
package mmutricks_test

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
)

// Build a simulated PowerPC machine, boot the kernel on it, run a
// small program, and read the performance monitor — the five-minute
// tour of the library.
func Example_quickstart() {
	// A 185 MHz PowerPC 604 with 32 MB of RAM, running the fully
	// optimized kernel from the paper. Swap in kernel.Unoptimized()
	// (or flip individual Config fields) to see each optimization's
	// effect.
	m := machine.New(clock.PPC604At185())
	k := kernel.New(m, kernel.Optimized())

	// Load a program image (48 KB of text) and start a process.
	img := k.LoadImage("hello", 12)
	task := k.Spawn(img)
	k.Switch(task)

	// Run it: execute instructions, touch heap memory, make syscalls.
	// Every instruction fetch and data access goes through the BATs,
	// segment registers, TLB, hash table and caches of the simulated
	// MMU; page faults demand-zero the heap.
	k.UserRun(0, 20000)
	k.UserTouch(kernel.UserDataBase, 64*1024)
	for i := 0; i < 100; i++ {
		k.SysNull()
	}

	// mmap a megabyte, touch it, unmap it. With the optimized kernel
	// the munmap is a cheap context flush; with FlushRangeCutoff: 0 it
	// would search the hash table for all 256 pages.
	addr := k.SysMmap(256)
	k.UserTouch(addr, 256*arch.PageSize)
	k.SysMunmap(addr, 256)

	fmt.Printf("simulated time: %.3f ms at %d MHz (%d cycles)\n\n",
		1000*m.Led.Seconds(m.Led.Now()), m.Model.MHz, m.Led.Now())
	fmt.Println("performance monitor:")
	fmt.Print(m.Mon.String())
	fmt.Printf("\nD-cache miss rate: %.2f%%   I-cache miss rate: %.2f%%\n",
		100*m.DCache.Stats().MissRate(), 100*m.ICache.Stats().MissRate())
	fmt.Printf("hash-table occupancy: %d / %d PTEs\n",
		m.MMU.HTAB.Occupancy(), m.MMU.HTAB.Capacity())
	// Output:
	// simulated time: 15.237 ms at 185 MHz (2818835 cycles)
	//
	// performance monitor:
	// tlb-hits                      37032
	// tlb-misses                      568
	// bat-hits                      53933
	// htab-hits                       284
	// htab-misses                     284
	// htab-primary-hits               284
	// htab-inserts                    284
	// htab-evicts-valid                 0
	// htab-evicts-zombie                0
	// htab-free-slot                  284
	// htab-flush-searches               0
	// sw-reloads                        0
	// hw-walks                        568
	// hashmiss-faults                 284
	// minor-faults                     12
	// major-faults                    272
	// flush-page                        0
	// flush-range                       0
	// flush-context                     2
	// signals                           0
	// syscalls                        102
	// ctx-switches                      1
	// forks                             0
	// execs                             0
	// exits                             0
	// kthread-mm-switches               0
	// swap-outs                         0
	// swap-ins                          0
	// ondemand-scans                    0
	// idle-polls                        0
	// zombies-reclaimed                 0
	// idle-pages-cleared                0
	// cleared-page-hits                 0
	// idle-waits                        0
	// idle-scans                        0
	// machine-checks                    0
	// mc-repairs-tlb                    0
	// mc-repairs-htab                   0
	// mc-repairs-bat                    0
	// mc-repairs-cache                  0
	// mc-escalations                    0
	// mc-spurious                       0
	// tlb-miss-rate                 1.51%
	// htab-hit-rate                50.00%
	// evict-ratio                   0.00%
	//
	// D-cache miss rate: 45.93%   I-cache miss rate: 12.48%
	// hash-table occupancy: 284 / 16384 PTEs
}

// What a TLB miss costs under each reload strategy on a PowerPC 603,
// and why "improving hash tables away" works (§6). The workload walks
// a working set far larger than the 128-entry TLB, so every pass is
// reload-dominated; the three kernels differ only in how the miss
// handler finds the PTE. The sec6.1-fastreload and sec6.2-nohtab
// experiments measure the same kernels on LmBench and the compile.
func Example_tlbReload() {
	run := func(name string, cfg kernel.Config) {
		m := machine.New(clock.PPC603At180())
		k := kernel.New(m, cfg)
		k.Switch(k.Spawn(k.LoadImage("thrash", 4)))

		// 512 pages: four times the 603's TLB reach.
		addr := k.SysMmap(512)
		k.UserTouchPages(addr, 512) // fault everything in (untimed)

		before := m.Mon.Snapshot()
		start := m.Led.Now()
		for pass := 0; pass < 8; pass++ {
			k.UserTouchPages(addr, 512)
		}
		cycles := m.Led.Now() - start
		d := m.Mon.Delta(before)

		perMiss := float64(cycles) / float64(d.TLBMisses)
		fmt.Printf("%-28s %9d cycles  %6d TLB misses  ~%5.0f cycles/miss  htab hit rate %5.1f%%\n",
			name, cycles, d.TLBMisses, perMiss, 100*d.HTABHitRate())
	}

	fmt.Println("PowerPC 603/180: 4096 working-set touches per pass, 512-page set (4x TLB reach)")
	fmt.Printf("(page size %d, TLB %d entries)\n\n", arch.PageSize, 128)

	cHandlers := kernel.Unoptimized() // C handlers, hash-table search
	fmt.Println("reload strategy:")
	run("C handlers + hash table", cHandlers)

	fast := cHandlers
	fast.FastReload = true
	run("fast handlers + hash table", fast)

	direct := fast
	direct.UseHTAB = false
	run("fast handlers, direct tree", direct)

	fmt.Println("\nThe direct-tree reload takes three loads in the worst case (§6.1);")
	fmt.Println("the hash-table search emulating the 604 touches up to 16 PTEs and")
	fmt.Println("still has to maintain the table — which is why §6.2 removes it.")
	// Output:
	// PowerPC 603/180: 4096 working-set touches per pass, 512-page set (4x TLB reach)
	// (page size 4096, TLB 128 entries)
	//
	// reload strategy:
	// C handlers + hash table        1444810 cycles    4096 TLB misses  ~  353 cycles/miss  htab hit rate 100.0%
	// fast handlers + hash table      543724 cycles    4096 TLB misses  ~  133 cycles/miss  htab hit rate 100.0%
	// fast handlers, direct tree      389580 cycles    4096 TLB misses  ~   95 cycles/miss  htab hit rate   0.0%
	//
	// The direct-tree reload takes three loads in the worst case (§6.1);
	// the hash-table search emulating the 604 touches up to 16 PTEs and
	// still has to maintain the table — which is why §6.2 removes it.
}

// The §7 design space: what a 4 MB mmap/munmap pair costs as a
// function of the range-flush cutoff, from fully eager (search the
// hash table for every page in the range) to the paper's tuned 20-page
// cutoff. The sec7-lazy experiment measures the two ends.
func Example_lazyFlush() {
	measure := func(lazy bool, cutoff int, pages int) (float64, uint64) {
		cfg := kernel.Optimized()
		cfg.UseHTAB = true // the 604-style setup of Table 2
		cfg.LazyFlush = lazy
		cfg.FlushRangeCutoff = cutoff
		if !lazy {
			cfg.IdleReclaim = false
		}
		k := kernel.New(machine.New(clock.PPC603At133()), cfg)
		r := lmbench.New(k).MmapLatency(pages, 6)
		return r.Micros, r.Counters.HTABFlushSearches
	}

	const pages = 1024 // 4 MB, as in Table 2's mmap row
	fmt.Printf("mmap+munmap of %d pages on a 603/133 (paper: 3240 us eager, 41 us lazy)\n\n", pages)
	fmt.Printf("%-34s %12s %18s\n", "flush strategy", "latency", "htab search loads")

	us, searches := measure(false, 0, pages)
	fmt.Printf("%-34s %9.1f us %18d\n", "eager, per-page search", us, searches)

	for _, cutoff := range []int{2048, 100, 20} {
		us, searches = measure(true, cutoff, pages)
		name := fmt.Sprintf("lazy, cutoff %d pages", cutoff)
		if cutoff >= pages {
			name += " (never trips)"
		}
		fmt.Printf("%-34s %9.1f us %18d\n", name, us, searches)
	}

	fmt.Println("\nAbove the cutoff the kernel retires the whole context instead: the")
	fmt.Println("process gets fresh VSIDs, its old PTEs become unmatchable zombies, and")
	fmt.Println("no hash-table search happens at all — the 80x collapse of §7.")
	// Output:
	// mmap+munmap of 1024 pages on a 603/133 (paper: 3240 us eager, 41 us lazy)
	//
	// flush strategy                          latency  htab search loads
	// eager, per-page search                2609.0 us             196608
	// lazy, cutoff 2048 pages (never trips)    2609.0 us             196608
	// lazy, cutoff 100 pages                  10.5 us                  0
	// lazy, cutoff 20 pages                   10.5 us                  0
	//
	// Above the cutoff the kernel retires the whole context instead: the
	// process gets fresh VSIDs, its old PTEs become unmatchable zombies, and
	// no hash-table search happens at all — the 80x collapse of §7.
}

// The paper's title optimizations: what the idle task can usefully do
// with the MMU while the machine waits for I/O — reclaim zombie
// hash-table PTEs (§7) and pre-clear free pages without touching the
// cache (§9). The sec7-idle-reclaim and sec9-idleclear experiments
// measure their effect on steady-state churn and on the compile.
func Example_idleTask() {
	// Lazy flushing litters the hash table with zombie PTEs, and the
	// idle task sweeps them out.
	cfg := kernel.Optimized()
	cfg.UseHTAB = true
	k := kernel.New(machine.New(clock.PPC604At185()), cfg)
	img := k.LoadImage("churn", 8)
	k.Switch(k.Spawn(img))

	fmt.Println("== idle-task zombie reclaim (§7) ==")
	for round := 0; round < 6; round++ {
		k.UserTouchPages(kernel.UserDataBase, 200)
		k.Exec(img) // lazy context flush: 200+ PTEs become zombies
		occ := k.M.MMU.HTAB.Occupancy()
		live := k.M.MMU.HTAB.LiveOccupancy(k.ZombieVSID)
		fmt.Printf("after exec %d: %5d valid PTEs, %4d live, %4d zombies\n",
			round+1, occ, live, occ-live)
	}
	st := k.RunIdleFor(3_000_000) // a long I/O wait
	occ := k.M.MMU.HTAB.Occupancy()
	fmt.Printf("idle task ran: %d zombies reclaimed; %d valid PTEs remain (all live: %v)\n",
		st.Reclaimed, occ, occ == k.M.MMU.HTAB.LiveOccupancy(k.ZombieVSID))

	// Cached idle clearing fills the data cache with useless lines;
	// uncached clearing leaves it alone. Both bank pages that make
	// get_free_page's fast path free.
	nonIdleLines := func(k *kernel.Kernel) int {
		n := 0
		for cl, lines := range k.M.DCache.Residency() {
			if cl != cache.ClassIdle {
				n += lines
			}
		}
		return n
	}
	fmt.Println()
	fmt.Println("== idle-task page clearing (§9) ==")
	for _, mode := range []kernel.IdleClearMode{
		kernel.IdleClearCached, kernel.IdleClearUncachedList,
	} {
		cfg := kernel.Optimized()
		cfg.IdleClear = mode
		k := kernel.New(machine.New(clock.PPC604At185()), cfg)
		k.Switch(k.Spawn(k.LoadImage("app", 8)))

		// The app builds up a hot cache-resident working set...
		k.UserTouch(kernel.UserDataBase, 24*1024)
		hotBefore := nonIdleLines(k)

		// ...then the machine goes idle and the idle task clears pages.
		st := k.RunIdleFor(400_000)

		hotAfter := nonIdleLines(k)
		idleLines := k.M.DCache.Residency()[cache.ClassIdle]
		fmt.Printf("%-16s cleared %3d pages; app's hot cache lines %4d -> %4d; idle-owned lines now %4d\n",
			mode, st.Cleared, hotBefore, hotAfter, idleLines)

		// get_free_page now has pre-cleared pages banked either way.
		before := k.M.Mon.Snapshot()
		k.UserTouch(kernel.UserDataBase+0x100000, 4096) // demand-zero fault
		d := k.M.Mon.Delta(before)
		fmt.Printf("%-16s demand-zero fault used a pre-cleared page: %v\n", mode, d.ClearedPageHits == 1)
	}
	fmt.Println("\ncached clearing evicted the app's working set (the §9 pathology);")
	fmt.Println("uncached clearing banked the same pages without touching the cache.")
	// Output:
	// == idle-task zombie reclaim (§7) ==
	// after exec 1:   200 valid PTEs,    0 live,  200 zombies
	// after exec 2:   400 valid PTEs,    0 live,  400 zombies
	// after exec 3:   600 valid PTEs,    0 live,  600 zombies
	// after exec 4:   800 valid PTEs,    0 live,  800 zombies
	// after exec 5:  1000 valid PTEs,    0 live, 1000 zombies
	// after exec 6:  1200 valid PTEs,    0 live, 1200 zombies
	// idle task ran: 1200 zombies reclaimed; 0 valid PTEs remain (all live: true)
	//
	// == idle-task page clearing (§9) ==
	// cached           cleared  43 pages; app's hot cache lines  787 ->   96; idle-owned lines now  928
	// cached           demand-zero fault used a pre-cleared page: true
	// uncached+list    cleared  75 pages; app's hot cache lines  787 -> 1024; idle-owned lines now    0
	// uncached+list    demand-zero fault used a pre-cleared page: true
	//
	// cached clearing evicted the app's working set (the §9 pathology);
	// uncached clearing banked the same pages without touching the cache.
}
