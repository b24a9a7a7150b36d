// Command kcompile runs the kernel-compile macro benchmark — the
// paper's "informal Linux benchmark" (§4) — on one simulated machine
// and kernel configuration.
//
// Usage:
//
//	kcompile -cpu 604/185 -config optimized -units 24
package main

import (
	"flag"
	"fmt"
	"os"

	"mmutricks/internal/cli"
	"mmutricks/internal/clock"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	defer cli.Recover("kcompile", &code)
	var (
		cpu        = flag.String("cpu", "604/185", "CPU model: 603/133, 603/180, 604/133, 604/185, 604/200")
		cfgName    = flag.String("config", "optimized", "kernel config: unoptimized, optimized, optimized+htab")
		units      = flag.Int("units", 24, "compilation units")
		work       = flag.Int("work-pages", 160, "compiler working set (pages)")
		strays     = flag.Int("strays", 0, "stray TLB-pressure references per compile step")
		counters   = flag.Bool("counters", false, "dump performance-monitor counters after the run")
		profile    = flag.Bool("profile", false, "print the kernel-path cycle profile after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	model, ok := clock.ModelByName(*cpu)
	if !ok {
		fmt.Fprintf(os.Stderr, "kcompile: unknown cpu %q\n", *cpu)
		return exitcode.Usage
	}
	cfg, ok := kernel.Named(*cfgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "kcompile: unknown config %q\n", *cfgName)
		return exitcode.Usage
	}
	bcfg := kbuild.Default()
	bcfg.Units = *units
	bcfg.WorkPages = *work
	bcfg.StrayRefs = *strays

	stopProfiles, err := cli.Profile("kcompile", *cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kcompile: %v\n", err)
		return exitcode.Internal
	}
	defer stopProfiles()

	k := kernel.New(machine.New(model), cfg)
	if *profile {
		k.M.Ph.Enable(telemetry.Options{})
	}
	r := kbuild.Run(k, bcfg)

	fmt.Printf("machine: %s   kernel: %s   units: %d\n\n", model.Name, *cfgName, *units)
	fmt.Printf("wall clock    %10.4f sim s\n", r.Seconds)
	fmt.Printf("compute       %10.4f sim s\n", r.ComputeSeconds)
	fmt.Printf("io wait       %10.4f sim s\n", r.Seconds-r.ComputeSeconds)
	fmt.Printf("tlb misses    %10d\n", r.Counters.TLBMisses)
	fmt.Printf("hash misses   %10d\n", r.Counters.HTABMisses)
	fmt.Printf("page faults   %10d major, %d minor\n", r.Counters.MajorFaults, r.Counters.MinorFaults)
	fmt.Printf("idle cleared  %10d pages (%d used by get_free_page)\n", r.Idle.Cleared, r.Counters.ClearedPageHits)
	fmt.Printf("zombies swept %10d\n", r.Idle.Reclaimed)
	if *counters {
		fmt.Printf("\n%s", k.M.Mon.String())
	}
	if *profile {
		fmt.Printf("\nkernel-path profile:\n%s", k.M.Ph.String())
	}
	return exitcode.OK
}
