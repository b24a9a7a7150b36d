// Command ablate measures how the paper's optimizations combine —
// §4's observation as a tool: "many optimizations did not interact as
// we expected ... the end effect was not the sum off all the
// optimizations."
//
// Usage:
//
//	ablate                      # kernel compile on a 603/180
//	ablate -cpu 604/185 -units 6
//
// For each optimization it reports the gain of enabling it alone (solo)
// and the gain it still provides inside the full stack (marginal); a
// large solo with a tiny marginal is the §5.1 "evaporation".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mmutricks/internal/ablate"
	"mmutricks/internal/cli"
	"mmutricks/internal/clock"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/report"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	defer cli.Recover("ablate", &code)
	var (
		cpu    = flag.String("cpu", "603/180", "CPU model: 603/133, 603/180, 604/133, 604/185, 604/200")
		units  = flag.Int("units", 4, "compile units per measured run (14 runs total)")
		strays = flag.Int("strays", 6, "TLB-pressure references per compile step")
		j      = flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size across the measured runs")
	)
	flag.Parse()

	model, ok := clock.ModelByName(*cpu)
	if !ok {
		fmt.Fprintf(os.Stderr, "ablate: unknown cpu %q\n", *cpu)
		return exitcode.Usage
	}
	bcfg := kbuild.Default()
	bcfg.Units = *units
	bcfg.WorkPages = 320
	bcfg.Passes = 2
	bcfg.StrayRefs = *strays

	metric := func(cfg kernel.Config) clock.Cycles {
		k := kernel.New(machine.New(model), cfg)
		r := kbuild.Run(k, bcfg)
		return r.Cycles - r.IdleCycles
	}

	report.SetParallelism(*j)
	fmt.Printf("interaction analysis: kernel compile on %s (%d units)\n\n", model.Name, *units)
	fmt.Print(ablate.RunWith(metric, ablate.Knobs(), func(n int, fn func(int)) { report.RowSet(context.Background(), n, fn) }).String())
	fmt.Println("\nA knob with a big solo gain and a small marginal gain has been")
	fmt.Println("subsumed by the rest of the stack — §5.1's \"nearly all the measured")
	fmt.Println("performance improvements ... evaporated when TLB miss handling was")
	fmt.Println("optimized\", measured.")
	return exitcode.OK
}
