// Command lmbench runs the LmBench-style microbenchmark suite against
// one simulated machine and kernel configuration.
//
// Usage:
//
//	lmbench -cpu 604/185 -config optimized
//	lmbench -cpu 603/133 -config unoptimized -counters
//	lmbench -j 4
//
// Each benchmark runs in its own freshly booted kernel, so the
// benchmarks are independent and the -j worker pool can run them
// concurrently; results are gathered by index, making the output
// byte-identical at every -j. With -counters the per-kernel
// performance-monitor counters are summed into one machine-wide dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mmutricks/internal/cli"
	"mmutricks/internal/clock"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/report"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	defer cli.Recover("lmbench", &code)
	var (
		cpu      = flag.String("cpu", "604/185", "CPU model: 603/133, 603/180, 604/133, 604/185, 604/200")
		cfgName  = flag.String("config", "optimized", "kernel config: unoptimized, optimized, optimized+htab")
		iters    = flag.Int("iters", 100, "iteration count for latency benchmarks")
		mmapPg   = flag.Int("mmap-pages", 1024, "pages mapped by the mmap-latency benchmark")
		counters = flag.Bool("counters", false, "dump summed performance-monitor counters after the run")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size across benchmarks")
	)
	flag.Parse()

	model, ok := clock.ModelByName(*cpu)
	if !ok {
		fmt.Fprintf(os.Stderr, "lmbench: unknown cpu %q\n", *cpu)
		return exitcode.Usage
	}
	cfg, ok := kernel.Named(*cfgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "lmbench: unknown config %q\n", *cfgName)
		return exitcode.Usage
	}
	report.SetParallelism(*j)

	benchmarks := []func(*lmbench.Suite) lmbench.Result{
		func(s *lmbench.Suite) lmbench.Result { return s.NullSyscall(*iters) },
		func(s *lmbench.Suite) lmbench.Result { return s.ProcStart(max(2, *iters/10)) },
		func(s *lmbench.Suite) lmbench.Result { return s.CtxSwitch(2, 0, *iters/2) },
		func(s *lmbench.Suite) lmbench.Result { return s.CtxSwitch(8, 4, *iters/4) },
		func(s *lmbench.Suite) lmbench.Result { return s.PipeLatency(*iters / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.PipeBandwidth(2 << 20) },
		func(s *lmbench.Suite) lmbench.Result { return s.FileReread(256, 4) },
		func(s *lmbench.Suite) lmbench.Result { return s.MmapLatency(*mmapPg, max(2, *iters/10)) },
		func(s *lmbench.Suite) lmbench.Result { return s.SignalLatency(*iters / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.FsLatency(*iters / 2) },
		func(s *lmbench.Suite) lmbench.Result { return s.ProtFaultLatency(*iters / 2) },
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
		k := kernel.New(machine.New(model), cfg)
		s := lmbench.New(k)
		if i < len(benchmarks) {
			results[i] = benchmarks[i](s)
		} else {
			memrd64k = s.MemReadLatency(64<<10, 4000)
			memrd2m = s.MemReadLatency(2<<20, 4000)
		}
		mons[i] = k.M.Mon.Snapshot()
	})

	fmt.Printf("machine: %s   kernel: %s\n\n", model.Name, *cfgName)
	for _, r := range results {
		fmt.Println(r)
	}
	fmt.Printf("%-12s %8.1f cycles/load (64K) / %.1f (2M)\n", "memrd", memrd64k, memrd2m)
	if *counters {
		var total hwmon.Counters
		for _, m := range mons {
			total.Add(m)
		}
		fmt.Printf("\n%s", total.String())
	}
	return exitcode.OK
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
