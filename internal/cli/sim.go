package cli

import (
	"context"
	"fmt"
	"io"

	"mmutricks/internal/ablate"
	"mmutricks/internal/clock"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/report"
	"mmutricks/internal/telemetry"
)

// runLmbench runs the LmBench-style microbenchmark suite against one
// simulated machine and kernel configuration:
//
//	mmu lmbench -cpu 604/185 -config optimized
//	mmu lmbench -cpu 603/133 -config unoptimized -counters
//	mmu lmbench -j 4
//
// Each benchmark runs in its own freshly booted kernel, so the
// benchmarks are independent and the -j worker pool can run them
// concurrently; results are gathered by index, making the output
// byte-identical at every -j. With -counters the per-kernel
// performance-monitor counters are summed into one machine-wide dump.
func runLmbench(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu lmbench", stderr)
	f.cpu("604/185")
	f.config()
	f.jobs()
	var (
		iters    = f.iters()
		mmapPg   = f.Int("mmap-pages", 1024, "pages mapped by the mmap-latency benchmark")
		counters = f.Bool("counters", false, "dump summed performance-monitor counters after the run")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	n := *iters
	benchmarks := []func(*lmbench.Suite) lmbench.Result{
		func(s *lmbench.Suite) lmbench.Result { return s.NullSyscall(n) },
		func(s *lmbench.Suite) lmbench.Result { return s.ProcStart(max(2, n/10)) },
		func(s *lmbench.Suite) lmbench.Result { return s.CtxSwitch(2, 0, n/2) },
		func(s *lmbench.Suite) lmbench.Result { return s.CtxSwitch(8, 4, n/4) },
		func(s *lmbench.Suite) lmbench.Result { return s.PipeLatency(n / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.PipeBandwidth(2 << 20) },
		func(s *lmbench.Suite) lmbench.Result { return s.FileReread(256, 4) },
		func(s *lmbench.Suite) lmbench.Result { return s.MmapLatency(*mmapPg, max(2, n/10)) },
		func(s *lmbench.Suite) lmbench.Result { return s.SignalLatency(n / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.FsLatency(n / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.ProtFaultLatency(n / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.BzeroBandwidth(64<<10, 8, lmbench.BzeroStores) },
		func(s *lmbench.Suite) lmbench.Result { return s.BcopyBandwidth(64<<10, 8) },
	}

	// One slot past the benchmarks holds the memrd latency pair, which
	// shares a kernel between its two sizes like the other rows share
	// their iterations.
	results := make([]lmbench.Result, len(benchmarks))
	mons := make([]hwmon.Counters, len(benchmarks)+1)
	var memrd64k, memrd2m float64
	report.RowSet(context.Background(), len(benchmarks)+1, func(i int) {
		k := kernel.New(machine.New(f.model), f.cfg)
		s := lmbench.New(k)
		if i < len(benchmarks) {
			results[i] = benchmarks[i](s)
		} else {
			memrd64k = s.MemReadLatency(64<<10, 4000)
			memrd2m = s.MemReadLatency(2<<20, 4000)
		}
		mons[i] = k.M.Mon.Snapshot()
	})

	fmt.Fprintf(stdout, "machine: %s   kernel: %s\n\n", f.model.Name, *f.cfgName)
	for _, r := range results {
		fmt.Fprintln(stdout, r)
	}
	fmt.Fprintf(stdout, "%-12s %8.1f cycles/load (64K) / %.1f (2M)\n", "memrd", memrd64k, memrd2m)
	if *counters {
		var total hwmon.Counters
		for _, m := range mons {
			total.Add(m)
		}
		fmt.Fprintf(stdout, "\n%s", total.String())
	}
	return exitcode.OK
}

// runKcompile runs the kernel-compile macro benchmark — the paper's
// "informal Linux benchmark" (§4) — on one simulated machine and kernel
// configuration:
//
//	mmu kcompile -cpu 604/185 -config optimized -units 24
func runKcompile(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu kcompile", stderr)
	f.profiles()
	f.cpu("604/185")
	f.config()
	var (
		units    = f.count("units", 24, "compilation units")
		work     = f.Int("work-pages", 160, "compiler working set (pages)")
		strays   = f.Int("strays", 0, "stray TLB-pressure references per compile step")
		counters = f.Bool("counters", false, "dump performance-monitor counters after the run")
		profile  = f.Bool("profile", false, "print the kernel-path cycle profile after the run")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	bcfg := kbuild.Default()
	bcfg.Units = *units
	bcfg.WorkPages = *work
	bcfg.StrayRefs = *strays

	k := kernel.New(machine.New(f.model), f.cfg)
	if *profile {
		k.M.Trc.Phases().Enable(telemetry.Options{})
	}
	r := kbuild.Run(k, bcfg)

	fmt.Fprintf(stdout, "machine: %s   kernel: %s   units: %d\n\n", f.model.Name, *f.cfgName, *units)
	fmt.Fprintf(stdout, "wall clock    %10.4f sim s\n", r.Seconds)
	fmt.Fprintf(stdout, "compute       %10.4f sim s\n", r.ComputeSeconds)
	fmt.Fprintf(stdout, "io wait       %10.4f sim s\n", r.Seconds-r.ComputeSeconds)
	fmt.Fprintf(stdout, "tlb misses    %10d\n", r.Counters.TLBMisses)
	fmt.Fprintf(stdout, "hash misses   %10d\n", r.Counters.HTABMisses)
	fmt.Fprintf(stdout, "page faults   %10d major, %d minor\n", r.Counters.MajorFaults, r.Counters.MinorFaults)
	fmt.Fprintf(stdout, "idle cleared  %10d pages (%d used by get_free_page)\n", r.Idle.Cleared, r.Counters.ClearedPageHits)
	fmt.Fprintf(stdout, "zombies swept %10d\n", r.Idle.Reclaimed)
	if *counters {
		fmt.Fprintf(stdout, "\n%s", k.M.Mon.String())
	}
	if *profile {
		fmt.Fprintf(stdout, "\nkernel-path profile:\n%s", k.M.Trc.Phases().String())
	}
	return exitcode.OK
}

// runAblate measures how the paper's optimizations combine — §4's
// observation as a tool: "many optimizations did not interact as we
// expected ... the end effect was not the sum off all the
// optimizations."
//
//	mmu ablate                      # kernel compile on a 603/180
//	mmu ablate -cpu 604/185 -units 6
//
// For each optimization it reports the gain of enabling it alone (solo)
// and the gain it still provides inside the full stack (marginal); a
// large solo with a tiny marginal is the §5.1 "evaporation".
func runAblate(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu ablate", stderr)
	f.cpu("603/180")
	f.jobs()
	var (
		units  = f.count("units", 4, "compile units per measured run (14 runs total)")
		strays = f.Int("strays", 6, "TLB-pressure references per compile step")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	bcfg := kbuild.Default()
	bcfg.Units = *units
	bcfg.WorkPages = 320
	bcfg.Passes = 2
	bcfg.StrayRefs = *strays

	metric := func(cfg kernel.Config) clock.Cycles {
		k := kernel.New(machine.New(f.model), cfg)
		r := kbuild.Run(k, bcfg)
		return r.Cycles - r.IdleCycles
	}

	fmt.Fprintf(stdout, "interaction analysis: kernel compile on %s (%d units)\n\n", f.model.Name, *units)
	fmt.Fprint(stdout, ablate.RunWith(metric, ablate.Knobs(), func(n int, fn func(int)) { report.RowSet(context.Background(), n, fn) }).String())
	fmt.Fprintln(stdout, "\nA knob with a big solo gain and a small marginal gain has been")
	fmt.Fprintln(stdout, "subsumed by the rest of the stack — §5.1's \"nearly all the measured")
	fmt.Fprintln(stdout, "performance improvements ... evaporated when TLB miss handling was")
	fmt.Fprintln(stdout, "optimized\", measured.")
	return exitcode.OK
}
