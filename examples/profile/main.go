// profile shows where the cycles go — the instrumented-kernel view the
// paper's whole optimization campaign was steered by (§4: "extensive
// use of quantitative measures and detailed analysis of low level
// system performance").
package main

import (
	"fmt"

	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

func main() {
	cfg := kbuild.Default()
	cfg.Units = 4
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8

	fmt.Println("kernel-path cycle profile of the compile workload (603/180)")
	for _, kc := range []struct {
		name string
		cfg  kernel.Config
	}{
		{"unoptimized", kernel.Unoptimized()},
		{"optimized", kernel.Optimized()},
	} {
		k := kernel.New(machine.New(clock.PPC603At180()), kc.cfg)
		k.M.Trc.Phases().Enable(telemetry.Options{})
		r := kbuild.Run(k, cfg)
		fmt.Printf("\n== %s (compute %.4f sim s) ==\n", kc.name, r.ComputeSeconds)
		fmt.Print(k.M.Trc.Phases().String())
	}
	fmt.Println("\nThe miss-handler and flush shares collapsing into user time IS the")
	fmt.Println("paper: every section (§5-§9) attacks one of these kernel slices.")
}
